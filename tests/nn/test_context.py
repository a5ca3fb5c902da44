"""The execution context is scoped per thread: no knob leaks across threads.

Five knobs change what an op does — the kernel mode, grad mode, the
recording tape, row-stable inference and the kernel output tap.  A thread
must read each from its own scopes, or the defaults, whatever other threads
enter and exit meanwhile.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, NamedTuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.nn import (
    KERNEL_MODES,
    Tape,
    active_tape,
    is_grad_enabled,
    kernel_mode,
    no_grad,
    row_stable_enabled,
    row_stable_inference,
    tape_scope,
    use_kernel_mode,
)
from repro.nn.functional import kernel_tap, kernel_tap_scope

#: Seconds any thread waits on another before the test fails.
TIMEOUT = 10.0


def test_kernel_mode_scopes_interleaved_across_threads_stay_apart():
    # A enters reference, B enters compiled, A exits while B is still inside.
    a_entered, b_entered, a_exited, b_exited = (threading.Event() for _ in range(4))
    seen: dict[str, str] = {}

    def thread_a() -> None:
        with use_kernel_mode("reference"):
            a_entered.set()
            b_entered.wait(TIMEOUT)
        a_exited.set()
        b_exited.wait(TIMEOUT)
        seen["a after both"] = kernel_mode()

    def thread_b() -> None:
        a_entered.wait(TIMEOUT)
        with use_kernel_mode("compiled"):
            b_entered.set()
            a_exited.wait(TIMEOUT)
            seen["b inside"] = kernel_mode()
        seen["b after"] = kernel_mode()
        b_exited.set()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT)
        assert not thread.is_alive()
    assert seen == {"b inside": "compiled", "b after": "fast", "a after both": "fast"}
    assert kernel_mode() == "fast"


# ----------------------------------------------------------------------
# Stateful: random scope enters/exits on three threads
# ----------------------------------------------------------------------

def _tap_one(site, array) -> None:
    pass


def _tap_two(site, array) -> None:
    pass


class Knob(NamedTuple):
    enter: Callable  # value -> context manager
    values: st.SearchStrategy
    read: Callable[[], object]
    default: object


KNOBS = {
    "kernels": Knob(use_kernel_mode, st.sampled_from(KERNEL_MODES), kernel_mode, "fast"),
    "grad": Knob(lambda _: no_grad(), st.just(False), is_grad_enabled, True),
    "tape": Knob(tape_scope, st.sampled_from([Tape(), Tape()]), active_tape, None),
    "row_stable": Knob(
        lambda _: row_stable_inference(), st.just(True), row_stable_enabled, False
    ),
    "tap": Knob(kernel_tap_scope, st.sampled_from([_tap_one, _tap_two]), kernel_tap, None),
}

ENTRIES = st.one_of(
    *(st.tuples(st.just(name), knob.values) for name, knob in KNOBS.items())
)


def _read_all() -> dict:
    return {name: knob.read() for name, knob in KNOBS.items()}


def _expected(stack: list) -> dict:
    """What a thread whose open scopes are ``stack`` (innermost last) reads."""
    values = {name: knob.default for name, knob in KNOBS.items()}
    for name, value in stack:
        values[name] = value
    return values


class _ScopeThread:
    """A long-lived thread that runs the callables fed to it, in order."""

    def __init__(self) -> None:
        self.inbox: queue.Queue = queue.Queue()
        self.outbox: queue.Queue = queue.Queue()
        self.scopes: list = []  # entered on this thread, innermost last
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self) -> None:
        while (fn := self.inbox.get()) is not None:
            try:
                self.outbox.put((True, fn()))
            except Exception as exc:  # re-raised on the test thread
                self.outbox.put((False, exc))

    def run(self, fn):
        self.inbox.put(fn)
        ok, value = self.outbox.get(timeout=TIMEOUT)
        if not ok:
            raise value
        return value

    def enter(self, scope) -> None:
        scope.__enter__()
        self.scopes.append(scope)

    def exit_innermost(self) -> None:
        self.scopes.pop().__exit__(None, None, None)

    def stop(self) -> None:
        self.inbox.put(None)
        self.thread.join(TIMEOUT)
        assert not self.thread.is_alive()


class ScopesAcrossThreads(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.threads = [_ScopeThread() for _ in range(3)]
        self.stacks: list[list] = [[] for _ in self.threads]

    @rule(thread=st.integers(0, 2), entry=ENTRIES)
    def enter(self, thread, entry):
        name, value = entry
        worker = self.threads[thread]
        worker.run(lambda: worker.enter(KNOBS[name].enter(value)))
        self.stacks[thread].append(entry)

    @precondition(lambda self: any(self.stacks))
    @rule(data=st.data())
    def exit(self, data):
        thread = data.draw(st.sampled_from([i for i, s in enumerate(self.stacks) if s]))
        worker = self.threads[thread]
        worker.run(worker.exit_innermost)
        self.stacks[thread].pop()

    @invariant()
    def every_thread_reads_its_own_scopes(self):
        for worker, stack in zip(self.threads, self.stacks):
            assert worker.run(_read_all) == _expected(stack)
        assert _read_all() == _expected([])

    def teardown(self):
        for worker, stack in zip(self.threads, self.stacks):
            for _ in stack:
                worker.run(worker.exit_innermost)
            worker.stop()


ScopesAcrossThreads.TestCase.settings = settings(max_examples=50, deadline=None)
TestScopesAcrossThreads = ScopesAcrossThreads.TestCase
