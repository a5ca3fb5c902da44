"""Per-op profiling of compiled training steps — ``repro-study profile``.

PR 7's compiled tape made the *step* fast but opaque: the benchmark says
replay is ~1.4× eager, not which ops pay for the remaining time.  This
module opens that box.  :class:`StepProfile` is the accumulator armed by
:meth:`CompiledStep.enable_profile` — persistent per-schedule-slot time and
call counters, bucketed separately for the forward ``apply`` and backward
``vjp`` schedules.  When profiling is off the armed replay loops carry
zero extra branches (the dispatch is one ``is None`` check per
``forward``/``backward`` call), and replayed values are bitwise-identical
either way — the profiled loops run the same op bodies in the same order,
bracketed by ``perf_counter`` reads.

:func:`profile_model_step` is the measurement harness behind the CLI:
record one training step of a registry architecture on synthetic data,
compile it, replay with profiling armed, and report per-op totals next to
the measured replay wall-clock (``coverage`` = op total / wall — the
fraction of the step the op table explains).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StepProfile",
    "ProfileRow",
    "StepProfileReport",
    "profile_model_step",
    "render_profile_report",
]


@dataclass
class ProfileRow:
    """Aggregated timing for one op name across its schedule slots."""

    op: str
    entries: int
    calls: int
    fwd_s: float
    bwd_s: float

    @property
    def total_s(self) -> float:
        return self.fwd_s + self.bwd_s


class StepProfile:
    """Per-slot time/call accumulators for one compiled schedule.

    One slot per forward ``apply`` and per backward ``vjp`` in schedule
    order — accumulators are persistent across replays, so profiling N
    steps costs two floats and two ints per slot, no per-step allocation.
    """

    def __init__(self, fwd_names, bwd_names) -> None:
        self.fwd_names = tuple(fwd_names)
        self.bwd_names = tuple(bwd_names)
        self.fwd_s = [0.0] * len(self.fwd_names)
        self.fwd_calls = [0] * len(self.fwd_names)
        self.bwd_s = [0.0] * len(self.bwd_names)
        self.bwd_calls = [0] * len(self.bwd_names)
        self.steps = 0

    def reset(self) -> None:
        self.fwd_s = [0.0] * len(self.fwd_names)
        self.fwd_calls = [0] * len(self.fwd_names)
        self.bwd_s = [0.0] * len(self.bwd_names)
        self.bwd_calls = [0] * len(self.bwd_names)
        self.steps = 0

    @property
    def op_total_s(self) -> float:
        return sum(self.fwd_s) + sum(self.bwd_s)

    def rows(self) -> list[ProfileRow]:
        """Per-op aggregation over the schedule, slowest first."""
        by_op: dict[str, ProfileRow] = {}
        for name, seconds, calls in zip(self.fwd_names, self.fwd_s, self.fwd_calls):
            row = by_op.setdefault(name, ProfileRow(name, 0, 0, 0.0, 0.0))
            row.entries += 1
            row.calls += calls
            row.fwd_s += seconds
        for name, seconds, calls in zip(self.bwd_names, self.bwd_s, self.bwd_calls):
            row = by_op.setdefault(name, ProfileRow(name, 0, 0, 0.0, 0.0))
            row.calls += calls
            row.bwd_s += seconds
        return sorted(by_op.values(), key=lambda row: row.total_s, reverse=True)


@dataclass
class StepProfileReport:
    """One profiling run: the per-op table plus its wall-clock context."""

    model: str
    width: int
    batch: int
    steps: int
    n_entries: int
    n_backward: int
    wall_s: float
    profile: StepProfile

    @property
    def op_total_s(self) -> float:
        return self.profile.op_total_s

    @property
    def coverage(self) -> float:
        """Fraction of the measured wall-clock the op table accounts for."""
        return self.op_total_s / self.wall_s if self.wall_s else 0.0


def profile_model_step(
    model: str = "vgg11",
    image_shape: tuple[int, int, int] = (3, 32, 32),
    num_classes: int = 10,
    width: int | None = None,
    batch: int = 4,
    steps: int = 30,
    warmup: int = 3,
    seed: int = 0,
) -> StepProfileReport:
    """Record, compile, and profile one architecture's training step.

    Synthetic data (seeded), compiled kernel mode, no optimizer inside the
    timed region — the measured wall covers exactly the forward + backward
    replay the op accumulators bracket, so ``coverage`` isolates schedule
    overhead (feed binding, gradient-slot bookkeeping) from op time.
    """
    # Deferred imports: repro.nn.compile imports this module from
    # enable_profile, and the model registry pulls in the full nn package.
    from ..models import build_model
    from . import SGD, CrossEntropy, Tensor, use_kernel_mode
    from .compile import compile_tape
    from .tape import Tape, tape_scope

    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, *image_shape)).astype(np.float32)
    y = np.eye(num_classes, dtype=np.float32)[rng.integers(0, num_classes, batch)]

    with use_kernel_mode("compiled"):
        net = build_model(model, image_shape, num_classes, width=width,
                          rng=np.random.default_rng(seed))
        net.train()
        optimizer = SGD(net.parameters(), lr=0.01)
        loss_fn = CrossEntropy()

        tape = Tape()
        with tape_scope(tape):
            logits = net(Tensor(x))
            loss = loss_fn(logits, y)
            optimizer.zero_grad()
            loss.backward()
        step = compile_tape(tape, loss, logits, (x, y))

        for _ in range(max(warmup, 1)):  # fault in the persistent buffers
            step.forward((x, y))
            step.backward()

        profile = step.enable_profile()
        profile.reset()
        # No cyclic-GC pass inside the timed window (as in timeit): when one
        # lands there depends on what the process allocated before, and its
        # pause is neither op time nor schedule overhead.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(steps):
                step.forward((x, y))
                step.backward()
            wall_s = time.perf_counter() - t0
        finally:
            if gc_was_enabled:
                gc.enable()
        step.disable_profile()

    return StepProfileReport(
        model=model,
        width=width or 0,
        batch=batch,
        steps=steps,
        n_entries=step.n_entries,
        n_backward=step.n_backward,
        wall_s=wall_s,
        profile=profile,
    )


def render_profile_report(report: StepProfileReport, top: int = 0) -> str:
    """Render the per-op table behind ``repro-study profile``."""
    profile = report.profile
    rows = profile.rows()
    if top:
        rows = rows[:top]
    per_step_ms = report.wall_s / report.steps * 1e3 if report.steps else 0.0
    lines = [
        f"profile: {report.model} batch={report.batch} "
        f"({report.n_entries} forward ops, {report.n_backward} backward ops, "
        f"{report.steps} replayed steps)",
        f"step wall-clock: {per_step_ms:.3f} ms/step, "
        f"op total {profile.op_total_s / report.steps * 1e3:.3f} ms/step "
        f"({report.coverage * 100:.1f}% coverage)",
        "",
        f"{'op':<24} {'entries':>7} {'calls':>7} {'fwd ms/step':>12} "
        f"{'bwd ms/step':>12} {'total ms/step':>14} {'%':>6}",
    ]
    op_total = profile.op_total_s or 1.0
    steps = report.steps or 1
    for row in rows:
        lines.append(
            f"{row.op:<24} {row.entries:>7} {row.calls:>7} "
            f"{row.fwd_s / steps * 1e3:>12.3f} {row.bwd_s / steps * 1e3:>12.3f} "
            f"{row.total_s / steps * 1e3:>14.3f} {row.total_s / op_total * 100:>5.1f}%"
        )
    return "\n".join(lines)
