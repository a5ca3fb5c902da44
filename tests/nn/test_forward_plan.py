"""Forward-plan equivalence, freshness and fallback tests.

A forward plan (:func:`repro.nn.compile.compile_forward`) replays one recorded
inference forward with persistent op contexts whose buffers share memory by
liveness.  ``ServableModel.predict_logits`` serves every call from one, so
the plan must return the eager forward's bits for every registry network,
see weights changed after it was recorded (in place, by ``load_state_dict``
or by a shared-block ``attach`` in a forked child), stay correct when two
threads share a servable, strike an armed kernel tap at the eager forward's
sites, and step aside — counted — whenever a replay could not reproduce the
eager forward.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.faults.hardware import hardware_fault_injection, stuck_at_0
from repro.models import build_model, model_names
from repro.nn import Dense, Module, Tensor, compile_forward, no_grad, use_kernel_mode
from repro.nn.compile import CompileError
from repro.nn.functional import batch_norm_2d, kernel_tap_scope, row_stable_inference
from repro.nn.shared import SharedBlock
from repro.nn.tape import Tape, tape_scope
from repro.serve import FleetSettings, ModelKey, ModelRegistry, ServableModel, ServingFleet
from repro.serve.registry import PLAN_CAP
from repro.telemetry import (
    MetricsRegistry,
    RecordingTelemetry,
    metrics_scope,
    telemetry_scope,
)

from ..conftest import same_bits
from ..serve.test_fleet import Exploding

IMAGE_SHAPE = (3, 16, 16)
NUM_CLASSES = 10
NETWORKS = model_names(include_extensions=True)


def _shape(name: str) -> tuple[int, ...]:
    return (12,) if name == "mlp" else IMAGE_SHAPE


def _model(name: str, seed: int = 0) -> Module:
    return build_model(name, _shape(name), NUM_CLASSES, seed=seed).eval()


def _batch(name: str, n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, *_shape(name))).astype(np.float32)


def _eager(module: Module, batch: np.ndarray) -> np.ndarray:
    with no_grad(), row_stable_inference():
        return module(Tensor(batch)).data


def _servable(module: Module) -> ServableModel:
    return ServableModel(ModelKey(model="net", dataset="test"), module)


def _record(module: Module, batch: np.ndarray):
    """``compile_forward``'s arguments: the tape, the feed and the logits."""
    tape = Tape(forward_only=True)
    with no_grad(), row_stable_inference(), tape_scope(tape):
        logits = module(Tensor(batch))
    return tape, batch, logits


def _perturbed_state(module: Module, seed: int) -> dict:
    """Another network's weights, with non-trivial batch-norm statistics."""
    rng = np.random.default_rng(seed)
    state = module.state_dict()
    for name, value in state.items():
        if name.endswith("running_var"):
            state[name] = rng.uniform(0.5, 2.0, value.shape).astype(value.dtype)
        else:
            state[name] = (value + rng.normal(0, 0.05, value.shape)).astype(value.dtype)
    return state


class TestPlanMatchesEager:
    @pytest.mark.parametrize("batch", [1, 8, 64])
    @pytest.mark.parametrize("name", NETWORKS)
    def test_replay_is_bitwise_eager(self, name, batch):
        module = _model(name)
        servable = _servable(module)
        first, second = _batch(name, batch, 1), _batch(name, batch, 2)
        recorded = servable.predict_logits(first)  # records and plans
        replays = [servable.predict_logits(x) for x in (first, second, first)]
        assert servable.plan_stats() == {"built": 1, "replays": 3, "fallbacks": {}}
        assert same_bits(recorded, _eager(module, first))
        assert same_bits(replays[0], recorded)
        assert same_bits(replays[1], _eager(module, second))
        assert same_bits(replays[2], recorded)

    def test_each_replay_returns_its_own_copy(self):
        servable = _servable(_model("convnet"))
        x = _batch("convnet", 2, 0)
        servable.predict_logits(x)
        a = servable.predict_logits(x)
        b = servable.predict_logits(x)
        assert a is not b and not np.shares_memory(a, b)
        a[...] = 0.0
        assert same_bits(servable.predict_logits(x), b)

    def test_buffers_are_shared_by_liveness(self):
        # resnet18 at batch 8: every op's buffers together hold ~9 MB; the
        # arena keeps about one stage's worth live at a time.
        module = _model("resnet18")
        x = _batch("resnet18", 8, 0)
        plan = compile_forward(*_record(module, x))
        plan.run(x)
        per_op = sum(
            value.nbytes
            for _, ctx, *_ in plan._steps
            for value in ctx.bufs.values()
            if isinstance(value, np.ndarray)
        )
        assert 0 < plan.nbytes * 4 < per_op

    def test_window_views_are_cached_across_replays(self):
        # A padded stride-1 conv caches its window views keyed on the cols
        # buffer object: arena buffers are views, so a key on ``.base``
        # would rebuild them on every replay.
        module = _model("convnet")
        x = _batch("convnet", 8, 0)
        plan = compile_forward(*_record(module, x))
        plan.run(x)
        cached = [ctx.bufs["i2c"] for _, ctx, *_ in plan._steps if "i2c" in ctx.bufs]
        assert cached
        plan.run(x)
        again = [ctx.bufs["i2c"] for _, ctx, *_ in plan._steps if "i2c" in ctx.bufs]
        assert all(a is b for a, b in zip(cached, again))

    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("name", NETWORKS)
    def test_tapped_replay_is_bitwise_tapped_eager(self, name, batch):
        module = _model(name)
        servable = _servable(module)
        x = _batch(name, batch, 1)
        servable.predict_logits(x)  # records the plan, untapped
        eager_tap, plan_tap = _VisitTap(), _VisitTap()
        with kernel_tap_scope(eager_tap):
            eager = _eager(module, x)
        with kernel_tap_scope(plan_tap):
            replayed = servable.predict_logits(x)
        assert servable.plan_stats() == {"built": 1, "replays": 1, "fallbacks": {}}
        assert plan_tap.visits == eager_tap.visits
        assert ("dense", (batch, NUM_CLASSES)) in plan_tap.visits
        assert same_bits(replayed, eager)
        assert not same_bits(replayed, servable.predict_logits(x))  # the tap struck

    def test_row_stable_dense_is_a_registry_op(self):
        dense = Dense(4, 3, rng=np.random.default_rng(0)).eval()
        tape, _, _ = _record(dense, np.ones((2, 4), np.float32))
        assert [entry.op.name for entry in tape.entries] == ["dense"]

    def test_training_tape_still_skips_no_grad_ops(self):
        tape = Tape()
        with tape_scope(tape), no_grad():
            _model("convnet")(Tensor(_batch("convnet", 1, 0)))
        assert len(tape) == 0

    def test_frozen_statistics_are_refused(self):
        # The functional batch norm takes its statistics as arrays, which a
        # replay would freeze; the module's eval op reads them live instead.
        x = Tensor(_batch("convnet", 2, 0))
        gamma, beta = Tensor(np.ones(3, np.float32)), Tensor(np.zeros(3, np.float32))
        stats = (np.zeros(3, np.float32), np.ones(3, np.float32))
        tape = Tape(forward_only=True)
        with no_grad(), tape_scope(tape):
            out = batch_norm_2d(x, gamma, beta, *stats, 1e-5, training=False)
        with pytest.raises(CompileError, match="array argument 'mean'"):
            compile_forward(tape, x.data, out)


class TestWeightsReachTheNextReplay:
    def test_load_state_dict(self):
        module = _model("resnet18")
        servable = _servable(module)
        x = _batch("resnet18", 2, 3)
        servable.predict_logits(x)  # records the plan
        before = servable.predict_logits(x)  # its first replay
        module.load_state_dict(_perturbed_state(module, 5))
        after = servable.predict_logits(x)
        assert servable.plan_stats() == {"built": 1, "replays": 2, "fallbacks": {}}
        assert not same_bits(after, before)
        assert same_bits(after, _eager(module, x))

    def test_in_place_weight_fault(self):
        module = _model("resnet18")
        servable = _servable(module)
        x = _batch("resnet18", 2, 4)
        servable.predict_logits(x)  # records the plan
        clean = servable.predict_logits(x)  # its first replay
        with hardware_fault_injection(stuck_at_0(1e-2, target="weight"), seed=3, model=module):
            faulty = servable.predict_logits(x)
            assert same_bits(faulty, _eager(module, x))
        assert not same_bits(faulty, clean)
        assert same_bits(servable.predict_logits(x), clean)
        assert servable.plan_stats()["fallbacks"] == {}

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_shared_block_attach_in_forked_child(self):
        # Plans built before the fork replay in the child after its modules
        # re-point every parameter and batch-norm buffer at a shared block.
        module = _model("resnet18")
        servable = _servable(module)
        x = _batch("resnet18", 3, 6)
        servable.predict_logits(x)  # records the plan
        parent_logits = servable.predict_logits(x)  # its first replay
        other = _model("resnet18", seed=1)
        other.load_state_dict(_perturbed_state(other, 7))
        block = SharedBlock.from_module(other)
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()

        def child() -> None:
            block.attach(module)
            replayed = servable.predict_logits(x)
            child_conn.send((
                same_bits(replayed, _eager(module, x)),
                same_bits(replayed, _eager(other, x)),
                servable.plan_stats(),
            ))

        try:
            proc = ctx.Process(target=child)
            proc.start()
            assert parent_conn.poll(60), "the forked child sent no result"
            matches_eager, matches_source, stats = parent_conn.recv()
            proc.join(timeout=30)
        finally:
            block.close()
        assert proc.exitcode == 0
        assert matches_eager and matches_source
        assert stats == {"built": 1, "replays": 2, "fallbacks": {}}
        assert same_bits(servable.predict_logits(x), parent_logits)  # parent untouched


class TestConcurrency:
    def test_two_threads_get_eager_rows(self):
        module = _model("convnet")
        servable = _servable(module)
        xs = {n: _batch("convnet", n, 10 + n) for n in (1, 2, 3, 8)}
        expected = {n: _eager(module, x) for n, x in xs.items()}
        start = threading.Barrier(2)
        wrong: list = []

        def client(order) -> None:
            start.wait()
            for _ in range(5):
                for n in order:
                    if not same_bits(servable.predict_logits(xs[n]), expected[n]):
                        wrong.append(n)

        threads = [
            threading.Thread(target=client, args=(order,))
            for order in ((1, 2, 3, 8), (8, 3, 2, 1))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not wrong
        stats = servable.plan_stats()
        assert stats["built"] == 8  # one plan per thread and shape
        assert stats["replays"] == 2 * 5 * 4 - 8


class _VisitTap:
    """A deterministic tap: logs each ``(site, shape)`` and scales the output
    by a factor that depends on how many outputs it has struck so far."""

    def __init__(self) -> None:
        self.visits: list = []

    def __call__(self, site: str, array: np.ndarray) -> None:
        self.visits.append((site, array.shape))
        array *= np.float32(1.0 + len(self.visits) / 64)


class _ScaledByConstant(Module):
    """Scales its features by a non-scalar constant: a replay would freeze it."""

    def __init__(self) -> None:
        super().__init__()
        self.dense = Dense(12, NUM_CLASSES, rng=np.random.default_rng(0))
        self.scale = np.linspace(0.5, 1.5, NUM_CLASSES).astype(np.float32)

    def forward(self, x: Tensor) -> Tensor:
        return self.dense(x) * Tensor(self.scale)


class TestFallbacks:
    def test_armed_tap_is_no_fallback(self):
        module = _model("convnet")
        servable = _servable(module)
        x = _batch("convnet", 2, 0)
        sites: list[str] = []
        metrics, tel = MetricsRegistry(), RecordingTelemetry()
        with metrics_scope(metrics), telemetry_scope(tel):
            servable.predict_logits(x)  # a plan exists for this shape
            with kernel_tap_scope(lambda site, array: sites.append(site)):
                for _ in range(2):
                    servable.predict_logits(x)
        assert "dense" in sites and "conv2d" in sites  # the replay's site ops ran it
        assert servable.plan_stats() == {"built": 1, "replays": 2, "fallbacks": {}}
        assert metrics.get("serve_forward_plans_total").value == 1
        assert metrics.get("serve_forward_plan_fallbacks_total").value == 0
        assert not [e for e in tel.events if e.get("name") == "forward_plan_fallback"]

    def test_reference_kernels_run_eager_and_are_counted(self):
        module = _model("resnet18")
        servable = _servable(module)
        x = _batch("resnet18", 2, 0)
        planned = servable.predict_logits(x)
        with use_kernel_mode("reference"):
            reference = servable.predict_logits(x)
        assert same_bits(reference, planned)
        assert servable.plan_stats() == {
            "built": 1, "replays": 0, "fallbacks": {"reference kernels": 1},
        }

    def test_refused_plan_runs_eager_per_call(self):
        module = _ScaledByConstant().eval()
        servable = _servable(module)
        x = _batch("mlp", 3, 0)
        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            out = [servable.predict_logits(x) for _ in range(3)]
        assert all(same_bits(o, _eager(module, x)) for o in out)
        stats = servable.plan_stats()
        assert stats["built"] == 0 and stats["replays"] == 0
        (reason,) = stats["fallbacks"]
        assert reason.startswith("refused: non-scalar constant")
        assert stats["fallbacks"][reason] == 3
        assert metrics.get("serve_forward_plans_total").value == 0
        assert metrics.get("serve_forward_plan_fallbacks_total").value == 3

    def test_forward_that_raises_caches_no_plan(self):
        servable = _servable(Exploding())
        for _ in range(2):
            with pytest.raises(ValueError, match="forward exploded"):
                servable.predict_logits(np.zeros((1, 4), np.float32))
        assert servable.plan_stats() == {"built": 0, "replays": 0, "fallbacks": {}}
        assert not servable._local.plans


class TestPlanCache:
    def test_cycling_batch_sizes_cannot_grow_past_the_cap(self):
        module = _model("convnet")
        servable = _servable(module)
        sizes = range(1, PLAN_CAP + 5)
        for _ in range(2):
            for n in sizes:
                x = _batch("convnet", n, n)
                assert same_bits(servable.predict_logits(x), _eager(module, x))
                assert len(servable._local.plans) <= PLAN_CAP
        # Least recently used goes first, so a cycle longer than the cap
        # misses every time: no shape is ever replayed.
        assert servable.plan_stats()["built"] == 2 * len(sizes)
        assert len(servable._local.plans) == PLAN_CAP


#: A batch cap above :data:`PLAN_CAP`: one plan per batch size must fit.
BATCH_CAP = 16


def _feed_every_size(servable: ServableModel, module: Module, submit, held_lock):
    """Two passes over batch sizes 1..BATCH_CAP; returns the plan stats after each.

    Holding the driver's lock while a batch's samples are submitted hands
    the worker all of them at once, so each size is one forward pass.
    """
    stats = []
    for _ in range(2):
        for n in range(1, BATCH_CAP + 1):
            x = _batch("convnet", n, n)
            with held_lock:
                futures = [submit(sample) for sample in x]
            rows = np.stack([future.result(timeout=60) for future in futures])
            assert same_bits(rows, _eager(module, x))
        stats.append(servable.plan_stats())
    return stats


class TestPlanCapFollowsTheBatchCap:
    def test_thread_fleet_keeps_a_plan_per_chunk_size(self):
        module = _model("convnet")
        registry = ModelRegistry()
        key = registry.register(_servable(module)).key
        settings = FleetSettings(replicas=1, backend="thread", chunk=BATCH_CAP)
        with ServingFleet(registry, settings) as fleet:
            replica = fleet._slots[0].handle.registry.get(key)
            stats = _feed_every_size(
                replica, module, lambda x: fleet.submit(key, x), fleet.router._cond
            )
        assert replica.plan_cap == BATCH_CAP
        assert stats == [
            {"built": BATCH_CAP, "replays": 0, "fallbacks": {}},
            {"built": BATCH_CAP, "replays": BATCH_CAP, "fallbacks": {}},
        ]

    def test_default_cap_stays_put(self):
        registry = ModelRegistry()
        servable = registry.register(_servable(_model("convnet")))
        with ServingFleet(registry, FleetSettings(replicas=1, backend="thread")) as fleet:
            fleet.predict(servable.key, _batch("convnet", 2, 0))
            replica = fleet._slots[0].handle.registry.get(servable.key)
        assert servable.plan_cap == replica.plan_cap == PLAN_CAP == 8
