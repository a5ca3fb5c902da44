"""The shared-memory packer: layout, views, attach, fork sharing, retirement.

``repro.nn.shared.SharedBlock`` is the one packer under both DDP's gradient
exchange and the serving fleet's weights.  The lifetime rule under test:
``close()`` unlinks the name at once and unmaps the pages as soon as no view
of them is alive; a block a live view still reads stays pinned until then.
"""

from __future__ import annotations

import copy
import multiprocessing
import sys
import threading
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import SGD, CrossEntropy, Trainer, use_ddp
from repro.nn import shared
from repro.nn.shared import ALIGNMENT, SharedBlock

SPECS = {
    "a": ((3,), np.float32),
    "b": ((2, 5), np.float64),
    "c": ((), np.int8),
    "d": ((7,), np.int16),
    "e": ((1, 3), np.float32),
}


@pytest.fixture()
def block():
    made = SharedBlock(SPECS)
    try:
        yield made
    finally:
        made.close()


@pytest.fixture()
def created_blocks(monkeypatch):
    """Every block created while the test runs, in creation order."""
    blocks = []
    init = SharedBlock.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        blocks.append(self)

    monkeypatch.setattr(SharedBlock, "__init__", recording)
    return blocks


def _assert_retired(block: SharedBlock) -> None:
    """``block`` is closed, unlinked, and not pinned."""
    assert block.closed
    assert block not in shared._PINNED
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=block.name)


def _write_through(view: np.ndarray) -> None:
    view[...] = 42


class TestLayout:
    def test_offsets_aligned_and_views_match_specs(self, block):
        assert ALIGNMENT == 64
        end = 0
        for name, (shape, dtype) in SPECS.items():
            offset, _, _ = block.layout[name]
            assert offset % ALIGNMENT == 0
            assert offset >= end, "regions overlap"
            view = block.view(name)
            assert view.shape == shape
            assert view.dtype == np.dtype(dtype)
            assert view.__array_interface__["data"][0] % ALIGNMENT == 0
            end = offset + view.nbytes

    def test_two_views_of_one_name_share_memory(self, block):
        first, second = block.view("b"), block.view("b")
        assert np.shares_memory(first, second)
        first[1, 2] = 3.5
        assert second[1, 2] == 3.5
        assert not np.shares_memory(block.view("a"), block.view("e"))


class TestAttach:
    def test_attach_gives_read_only_views_with_template_bytes(self):
        # resnet18 carries batch-norm buffers as well as parameters; give
        # them distinctive bytes so the comparison below means something.
        template = build_model("resnet18", (3, 8, 8), 4, width=2, seed=3)
        rng = np.random.default_rng(5)
        for _, buf in template.named_buffers():
            buf[...] = rng.normal(size=buf.shape)
        block = SharedBlock.from_module(template)
        try:
            clone = copy.deepcopy(template)
            views = block.attach(clone)
            named = [(name, p.data) for name, p in clone.named_parameters()]
            named += list(clone.named_buffers())
            assert len(views) == len(named) > len(template.parameters())
            originals = template.state_dict()
            for name, array in named:
                assert not array.flags.writeable
                assert np.shares_memory(array, block.view(name))
                assert array.tobytes() == originals[name].tobytes()
            with pytest.raises(ValueError):
                named[0][1][...] = 0.0
        finally:
            block.close()


class TestFork:
    def test_forked_child_writes_through_inherited_view(self, block):
        view = block.view("d")
        child = multiprocessing.get_context("fork").Process(
            target=_write_through, args=(view,)
        )
        child.start()
        child.join()
        assert child.exitcode == 0
        assert (block.view("d") == 42).all()


class TestRetire:
    def test_close_unlinks_and_second_close_is_a_noop(self):
        block = SharedBlock(SPECS)
        block.close()
        _assert_retired(block)
        block.close()
        _assert_retired(block)

    def test_view_alive_at_close_stays_readable_and_pins(self):
        block = SharedBlock(SPECS)
        view = block.view("b")
        view[...] = 1.25
        block.close()
        assert block in shared._PINNED
        assert (view == 1.25).all()  # pages still mapped
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=block.name)
        del view
        SharedBlock(SPECS).close()  # every close retries the pinned blocks
        _assert_retired(block)

    def test_no_view_alive_pins_nothing(self):
        block = SharedBlock(SPECS)
        block.view("a")[...] = 2.0  # a temporary view, gone before close
        block.close()
        _assert_retired(block)

    def test_concurrent_closes_lose_no_pin(self):
        # Every close sweeps the one pin list.  Keep it long with blocks
        # whose views stay alive, then let threads close and free blocks
        # concurrently: two sweeps racing to free the same block must not
        # raise, and once every view is gone nothing may stay pinned.
        held = []
        for _ in range(200):
            block = SharedBlock(SPECS)
            held.append((block, block.view("a")))
            block.close()
        churned, errors = [], []

        def churn() -> None:
            try:
                for _ in range(20):
                    block = SharedBlock(SPECS)
                    view = block.view("a")
                    block.close()
                    churned.append(block)
                    del view
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        blocks = [block for block, _ in held] + churned
        held.clear()
        SharedBlock(SPECS).close()  # one more sweep after every view died
        assert len(blocks) == 200 + 8 * 20
        for block in blocks:
            _assert_retired(block)


class TestUsersRetireTheirBlocks:
    def test_process_ddp_fit_leaves_nothing_pinned(self, created_blocks):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(13, 12)).astype(np.float32)
        y = np.eye(5, dtype=np.float32)[rng.integers(0, 5, 13)]
        model = build_model("mlp", (12,), 5, width=2, rng=np.random.default_rng(3))
        trainer = Trainer(
            model, CrossEntropy(), SGD(model.parameters(), lr=0.05),
            epochs=1, batch_size=5, rng=np.random.default_rng(11),
        )
        with use_ddp(2):
            trainer.fit(x, y)
        assert len(created_blocks) == 1, "expected one process-backend block"
        _assert_retired(created_blocks[0])

    def test_closed_process_fleets_leave_nothing_pinned(self, created_blocks):
        from repro.serve import (
            BatchSettings, FleetSettings, ModelKey, ModelRegistry, ServingFleet,
        )

        key = ModelKey(model="convnet", dataset="gtsrb")
        registry = ModelRegistry()
        registry.register_module(
            key, build_model("convnet", image_shape=(3, 8, 8), num_classes=4, seed=3)
        )
        sample = np.zeros((3, 8, 8), dtype=np.float32)
        settings = FleetSettings(
            replicas=2, backend="process",
            batch=BatchSettings(max_batch_size=4, max_latency_ms=1.0, workers=1),
        )
        for _ in range(3):
            with ServingFleet(registry, settings) as fleet:
                fleet.predict(key, sample)
        assert len(created_blocks) == 3
        for block in created_blocks:
            _assert_retired(block)
