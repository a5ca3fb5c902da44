"""Deterministic data-parallel tests: sharding, reduction, backend equality.

The contract under test (``repro.nn.allreduce``): one optimisation step
under ``ddp = N`` is *defined* by sharded-step semantics — contiguous
shards, per-replica forward/backward, fixed-order chunked reduction — and
both backends (forked ``"process"`` workers, the single-process
``"inproc"`` reference) execute those semantics bitwise-identically.  At
``world = 1`` the semantics collapse to the plain eager step exactly
(scaling by ``n/n == 1.0`` is a float no-op), which these tests also pin.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.nn.trainer as trainer_mod
from repro.models import build_model
from repro.nn import (
    SGD,
    CrossEntropy,
    DataParallelGroup,
    Tensor,
    Trainer,
    combine_shard_losses,
    get_ddp,
    reduce_gradients,
    set_ddp,
    shard_slices,
    use_ddp,
)
from repro.telemetry import RecordingTelemetry, telemetry_scope

NUM_CLASSES = 5
IMAGE_SHAPE = (3, 16, 16)
#: 13 examples in batches of 5 → per-epoch batches of 5, 5, 3: the ragged
#: tail means every fit exercises unequal shards and (at world 4) idle ranks.
N, BATCH, EPOCHS = 13, 5, 2
STEPS = EPOCHS * 3


def _data(name: str):
    rng = np.random.default_rng(7)
    feature_shape = (12,) if name == "mlp" else IMAGE_SHAPE
    x = rng.normal(size=(N, *feature_shape)).astype(np.float32)
    y = np.eye(NUM_CLASSES, dtype=np.float32)[rng.integers(0, NUM_CLASSES, N)]
    return feature_shape, x, y


@contextmanager
def _force_backend(backend: str):
    """Make the trainer build its ddp group with a fixed backend."""
    original = trainer_mod.DataParallelGroup

    class Forced(original):
        def __init__(self, *args, **kwargs):
            kwargs["backend"] = backend
            super().__init__(*args, **kwargs)

    trainer_mod.DataParallelGroup = Forced
    try:
        yield
    finally:
        trainer_mod.DataParallelGroup = original


def _fit(name: str, world: int = 1, backend: "str | None" = None, clip_norm=None):
    """Train ``name`` from a fixed seed; returns (model, history)."""
    feature_shape, x, y = _data(name)
    model = build_model(
        name, feature_shape, NUM_CLASSES, width=2, rng=np.random.default_rng(3)
    )
    trainer = Trainer(
        model,
        CrossEntropy(),
        SGD(model.parameters(), lr=0.05),
        epochs=EPOCHS,
        batch_size=BATCH,
        rng=np.random.default_rng(11),
        clip_norm=clip_norm,
    )
    with use_ddp(world):
        if backend is None:
            history = trainer.fit(x, y)
        else:
            with _force_backend(backend):
                history = trainer.fit(x, y)
    return model, history


def _assert_bitwise_same(a, b):
    model_a, hist_a = a
    model_b, hist_b = b
    assert hist_a.loss_curve() == hist_b.loss_curve()
    assert [e.train_accuracy for e in hist_a.epochs] == [
        e.train_accuracy for e in hist_b.epochs
    ]
    for pa, pb in zip(model_a.parameters(), model_b.parameters()):
        assert pa.data.tobytes() == pb.data.tobytes(), "weight bytes diverged"
    for (name_a, buf_a), (name_b, buf_b) in zip(
        model_a.named_buffers(), model_b.named_buffers()
    ):
        assert name_a == name_b
        assert buf_a.tobytes() == buf_b.tobytes(), f"buffer {name_a} diverged"


# ----------------------------------------------------------------------
# The combination helpers
# ----------------------------------------------------------------------

class TestShardSlices:
    def test_contiguous_cover_with_larger_shards_first(self):
        assert shard_slices(13, 4) == [
            slice(0, 4), slice(4, 7), slice(7, 10), slice(10, 13)
        ]

    def test_exact_division(self):
        assert shard_slices(8, 2) == [slice(0, 4), slice(4, 8)]

    def test_world_one_is_the_whole_batch(self):
        assert shard_slices(5, 1) == [slice(0, 5)]

    def test_small_batch_leaves_empty_tails(self):
        slices = shard_slices(3, 4)
        assert len(slices) == 4
        assert [s.stop - s.start for s in slices] == [1, 1, 1, 0]

    def test_boundaries_depend_only_on_n_and_world(self):
        assert shard_slices(100, 7) == shard_slices(100, 7)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            shard_slices(-1, 2)
        with pytest.raises(ValueError, match="world must be"):
            shard_slices(4, 0)


class TestReduceGradients:
    def test_world_one_is_exact_identity(self):
        flat = np.random.default_rng(0).normal(size=1000).astype(np.float32)
        out = reduce_gradients([flat], [5])
        assert np.array_equal(out, flat)  # × 1.0 changes no bits

    def test_chunking_changes_no_bits(self):
        rng = np.random.default_rng(1)
        flats = [rng.normal(size=10_001).astype(np.float32) for _ in range(3)]
        lens = [5, 4, 2]
        whole = reduce_gradients(flats, lens, chunk=1 << 20)
        tiny = reduce_gradients(flats, lens, chunk=7)
        assert np.array_equal(whole, tiny)

    def test_matches_copy_then_accumulate_order(self):
        rng = np.random.default_rng(2)
        flats = [rng.normal(size=257).astype(np.float32) for _ in range(3)]
        lens = [3, 2, 2]
        total = sum(lens)
        reference = flats[0] * (lens[0] / total)  # float32 copy, then +=
        for flat, n in zip(flats[1:], lens[1:]):
            reference += flat * (n / total)
        assert reference.dtype == np.float32
        assert np.array_equal(reduce_gradients(flats, lens), reference)

    def test_reuses_out_buffer(self):
        flat = np.ones(16, dtype=np.float32)
        out = np.empty(16, dtype=np.float32)
        assert reduce_gradients([flat], [4], out=out) is out

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            reduce_gradients([], [])
        with pytest.raises(ValueError, match="lengths"):
            reduce_gradients([np.ones(4, np.float32)], [1, 2])
        with pytest.raises(ValueError, match="positive"):
            reduce_gradients([np.ones(4, np.float32)], [0])


class TestCombineShardLosses:
    def test_world_one_is_exact(self):
        assert combine_shard_losses([0.123456789], [7]) == 0.123456789

    def test_weighted_left_to_right(self):
        losses, lens = [1.0, 2.0, 4.0], [2, 1, 1]
        expected = (2 / 4) * 1.0
        expected += (1 / 4) * 2.0
        expected += (1 / 4) * 4.0
        assert combine_shard_losses(losses, lens) == expected

    def test_validation(self):
        with pytest.raises(ValueError, match="lengths"):
            combine_shard_losses([1.0], [1, 2])
        with pytest.raises(ValueError, match="positive"):
            combine_shard_losses([1.0], [0])


class TestDdpKnob:
    def test_set_returns_previous(self):
        before = get_ddp()
        try:
            assert set_ddp(3) == before
            assert get_ddp() == 3
        finally:
            set_ddp(before)

    def test_use_ddp_restores_on_exit(self):
        before = get_ddp()
        with use_ddp(4) as world:
            assert world == 4 and get_ddp() == 4
        assert get_ddp() == before

    def test_world_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            set_ddp(0)


# ----------------------------------------------------------------------
# Group semantics
# ----------------------------------------------------------------------

class TestGroupWorldOne:
    def test_world_one_step_equals_plain_eager_step(self):
        # Sharded semantics collapse exactly to the eager step at world 1:
        # same loss floats, same gradient bits, same weights after stepping.
        feature_shape, x, y = _data("convnet")

        def build():
            model = build_model(
                "convnet", feature_shape, NUM_CLASSES, width=2,
                rng=np.random.default_rng(3),
            )
            return model, SGD(model.parameters(), lr=0.05), CrossEntropy()

        model_g, opt_g, loss_g = build()
        model_e, opt_e, loss_e = build()
        model_g.train()
        model_e.train()
        with DataParallelGroup(model_g, loss_g, world=1, batch_capacity=BATCH) as group:
            for lo in range(0, N, BATCH):
                xb, yb = x[lo : lo + BATCH], y[lo : lo + BATCH]
                group_loss, group_logits = group.forward_backward(xb, yb)
                opt_g.step()

                for p in model_e.parameters():
                    p.zero_grad()
                logits = model_e(Tensor(xb))
                loss_t = loss_e(logits, yb)
                eager_loss = float(loss_t.item())
                loss_t.backward()
                opt_e.step()

                assert group_loss == eager_loss
                assert np.array_equal(group_logits, logits.data)
        for pg, pe in zip(model_g.parameters(), model_e.parameters()):
            assert pg.data.tobytes() == pe.data.tobytes()

    def test_capacity_and_geometry_guards(self):
        feature_shape, x, y = _data("mlp")
        model = build_model(
            "mlp", feature_shape, NUM_CLASSES, width=2, rng=np.random.default_rng(3)
        )
        with DataParallelGroup(
            model, CrossEntropy(), world=2, batch_capacity=4, backend="inproc"
        ) as group:
            group.forward_backward(x[:4], y[:4])
            with pytest.raises(ValueError, match="exceeds ddp capacity"):
                group.forward_backward(x[:5], y[:5])
            with pytest.raises(ValueError, match="feed shape changed"):
                group.forward_backward(x[:4, :11], y[:4])

    def test_constructor_validation(self):
        model = build_model("mlp", (12,), NUM_CLASSES, width=2)
        with pytest.raises(ValueError, match="world"):
            DataParallelGroup(model, CrossEntropy(), world=0, batch_capacity=4)
        with pytest.raises(ValueError, match="batch_capacity"):
            DataParallelGroup(model, CrossEntropy(), world=2, batch_capacity=0)
        with pytest.raises(ValueError, match="backend"):
            DataParallelGroup(
                model, CrossEntropy(), world=2, batch_capacity=4, backend="mpi"
            )


# ----------------------------------------------------------------------
# Backend equivalence through full fits (the acceptance contract)
# ----------------------------------------------------------------------

class TestBackendEquivalence:
    """Forked-worker fits must equal the single-process reference, bitwise.

    ``vgg11`` and ``resnet18`` are the acceptance pair; ``convnet`` adds
    batch-norm running buffers and ``mlp`` adds dropout rng streams — the
    two kinds of replica-local state the backends must keep identical.
    """

    @pytest.mark.parametrize("name", ["vgg11", "resnet18", "convnet", "mlp"])
    def test_process_fit_bitwise_equals_inproc_fit(self, name):
        _assert_bitwise_same(
            _fit(name, world=2, backend="process"),
            _fit(name, world=2, backend="inproc"),
        )

    def test_world_larger_than_final_batch(self):
        # Final batch of 3 at world 4: one rank idles — both backends must
        # agree on the idle-rank bookkeeping too.
        _assert_bitwise_same(
            _fit("convnet", world=4, backend="process"),
            _fit("convnet", world=4, backend="inproc"),
        )

    def test_clip_norm_composes_with_ddp(self):
        # Gradient clipping reads the installed .grad views; both backends
        # must feed it identical bits.
        _assert_bitwise_same(
            _fit("mlp", world=2, backend="process", clip_norm=1.0),
            _fit("mlp", world=2, backend="inproc", clip_norm=1.0),
        )

    def test_ddp_fit_event_reports_world_backend_steps(self):
        tel = RecordingTelemetry()
        with telemetry_scope(tel):
            _fit("mlp", world=2, backend="inproc")
        events = [e for e in tel.drain() if e.get("name") == "ddp_fit"]
        assert len(events) == 1
        assert events[0]["world"] == 2
        assert events[0]["backend"] == "inproc"
        assert events[0]["steps"] == STEPS

    def test_batch_hook_is_rejected_under_ddp(self):
        feature_shape, x, y = _data("mlp")
        model = build_model(
            "mlp", feature_shape, NUM_CLASSES, width=2, rng=np.random.default_rng(3)
        )
        trainer = Trainer(
            model, CrossEntropy(), SGD(model.parameters(), lr=0.05),
            epochs=1, batch_size=BATCH, rng=np.random.default_rng(11),
            batch_hook=lambda m, xb, yb: None,
        )
        with use_ddp(2):
            with pytest.raises(ValueError, match="batch_hook"):
                trainer.fit(x, y)


# ----------------------------------------------------------------------
# Dead workers surface as typed errors naming the rank
# ----------------------------------------------------------------------

class _ExitsInWorker(CrossEntropy):
    """CE that kills any process but its creator mid-shard-step."""

    def __init__(self) -> None:
        super().__init__()
        self.owner = os.getpid()

    def __call__(self, logits, targets):
        if os.getpid() != self.owner:
            os._exit(3)
        return super().__call__(logits, targets)


class TestWorkerDeath:
    def _group(self, loss_fn):
        feature_shape, x, y = _data("mlp")
        model = build_model(
            "mlp", feature_shape, NUM_CLASSES, width=2, rng=np.random.default_rng(3)
        )
        group = DataParallelGroup(
            model, loss_fn, world=2, batch_capacity=BATCH, backend="process"
        )
        return group, x[:BATCH], y[:BATCH]

    def test_worker_killed_between_steps(self):
        group, xb, yb = self._group(CrossEntropy())
        try:
            group.forward_backward(xb, yb)
            victim = group._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            with pytest.raises(RuntimeError, match="ddp worker 1"):
                group.forward_backward(xb, yb)
        finally:
            group.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=group._block.name)

    def test_worker_dying_mid_step(self):
        group, xb, yb = self._group(_ExitsInWorker())
        try:
            with pytest.raises(RuntimeError, match="ddp worker 1 died mid-step"):
                group.forward_backward(xb, yb)
        finally:
            group.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=group._block.name)
