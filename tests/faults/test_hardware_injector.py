"""HardwareFaultInjector: determinism, bit semantics, and clean restoration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.hardware import (
    HardwareFaultInjector,
    bit_flip,
    derive_site_seed,
    hardware_fault_injection,
    random_value,
    stuck_at_0,
    stuck_at_1,
)
from repro.models.registry import build_model
from repro.nn import Tensor, no_grad


def sample(shape=(4, 64), seed=0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


class TestDeterminism:
    def test_same_seed_identical_flips(self):
        a, b = sample(), sample()
        first = HardwareFaultInjector(bit_flip(0.05), seed=7, record_sites=True)
        second = HardwareFaultInjector(bit_flip(0.05), seed=7, record_sites=True)
        first.perturb("conv2d", a)
        second.perturb("conv2d", b)
        assert first.flip_signature() == second.flip_signature()
        assert first.flip_signature()  # non-empty at this rate and size
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a, b = sample(), sample()
        HardwareFaultInjector(bit_flip(0.05), seed=1).perturb("conv2d", a)
        HardwareFaultInjector(bit_flip(0.05), seed=2).perturb("conv2d", b)
        assert not np.array_equal(a, b)

    def test_site_visits_draw_independently(self):
        arr = sample()
        injector = HardwareFaultInjector(bit_flip(0.05), seed=3, record_sites=True)
        injector.perturb("dense", arr.copy())
        injector.perturb("dense", arr.copy())
        sites = {flip.site for flip in injector.flips}
        assert sites == {"dense#0", "dense#1"}

    def test_derive_site_seed_is_crc32_stable(self):
        # Pinned value: catches accidental reformulation of the derivation,
        # which would silently change every campaign's flip sites.
        assert derive_site_seed(7, "bit_flip@0.001:activation", "conv2d", 0) == \
            derive_site_seed(7, "bit_flip@0.001:activation", "conv2d", 0)
        assert derive_site_seed(7, "x", "conv2d", 0) != derive_site_seed(8, "x", "conv2d", 0)
        assert derive_site_seed(7, "x", "conv2d", 0) != derive_site_seed(7, "x", "conv2d", 1)


class TestFaultSemantics:
    def test_rate_zero_touches_nothing(self):
        arr = sample()
        before = arr.copy()
        count = HardwareFaultInjector(bit_flip(0.0), seed=0).perturb("conv2d", arr)
        assert count == 0
        np.testing.assert_array_equal(arr, before)

    def test_tensor_probability_zero_skips_every_tensor(self):
        arr = sample()
        before = arr.copy()
        injector = HardwareFaultInjector(
            bit_flip(1.0, tensor_probability=0.0), seed=0
        )
        for _ in range(5):
            assert injector.perturb("conv2d", arr) == 0
        np.testing.assert_array_equal(arr, before)
        assert injector.stats.tensors_seen == 5
        assert injector.stats.tensors_hit == 0

    def test_stuck_at_0_clears_the_bit(self):
        arr = sample()
        HardwareFaultInjector(stuck_at_0(1.0, bit=31), seed=0).perturb("dense", arr)
        # Bit 31 is the sign bit: everything becomes non-negative.
        assert (arr >= 0).all()

    def test_stuck_at_1_sets_the_bit(self):
        arr = np.abs(sample())
        HardwareFaultInjector(stuck_at_1(1.0, bit=31), seed=0).perturb("dense", arr)
        assert (np.signbit(arr) | (arr == 0)).all()

    def test_bit_flip_twice_restores(self):
        arr = sample()
        before = arr.copy()
        spec = bit_flip(1.0, bit=12)
        # Same seed + same visit index → same positions; XOR is an involution.
        HardwareFaultInjector(spec, seed=5).perturb("conv2d", arr)
        assert not np.array_equal(arr, before)
        HardwareFaultInjector(spec, seed=5).perturb("conv2d", arr)
        np.testing.assert_array_equal(arr, before)

    def test_random_value_stays_in_tensor_range(self):
        arr = sample()
        amax = float(np.abs(arr).max())
        HardwareFaultInjector(random_value(1.0), seed=0).perturb("dense", arr)
        assert (np.abs(arr) <= amax + 1e-6).all()

    def test_non_float32_rejected_for_bit_faults(self):
        arr = np.zeros(8, dtype=np.float64)
        with pytest.raises(TypeError, match="float32"):
            HardwareFaultInjector(bit_flip(1.0), seed=0).perturb("dense", arr)

    def test_non_contiguous_array_matches_contiguous(self):
        base = sample((8, 8))
        transposed = np.ascontiguousarray(base.T).T  # F-contiguous view
        assert not transposed.flags["C_CONTIGUOUS"]
        contiguous = transposed.copy()
        spec = bit_flip(0.2)
        HardwareFaultInjector(spec, seed=9).perturb("conv2d", transposed)
        HardwareFaultInjector(spec, seed=9).perturb("conv2d", contiguous)
        np.testing.assert_array_equal(np.asarray(transposed), contiguous)

    def test_stats_tally(self):
        injector = HardwareFaultInjector(bit_flip(1.0), seed=0)
        count = injector.perturb("dense", sample((2, 4)))
        assert count == 8
        assert injector.stats.tensors_seen == 1
        assert injector.stats.tensors_hit == 1
        assert injector.stats.elements_faulted == 8


@pytest.fixture(scope="module")
def convnet():
    return build_model("convnet", image_shape=(3, 8, 8), num_classes=10, seed=3).eval()


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(1).random((6, 3, 8, 8)).astype(np.float32)


def forward(model, images) -> np.ndarray:
    with no_grad():
        return model(Tensor(images)).data


class TestInjectionContext:
    def test_activation_context_corrupts_then_restores(self, convnet, images):
        clean = forward(convnet, images)
        with hardware_fault_injection(bit_flip(0.01), seed=4) as injector:
            faulty = forward(convnet, images)
        assert injector.stats.elements_faulted > 0
        assert not np.array_equal(faulty, clean)
        # Exiting the context restores bitwise-clean inference.
        np.testing.assert_array_equal(forward(convnet, images), clean)

    def test_weight_context_restores_parameters_bitwise(self, convnet, images):
        saved = [param.data.copy() for _, param in convnet.named_parameters()]
        clean = forward(convnet, images)
        with hardware_fault_injection(
            bit_flip(0.01, target="weight"), seed=4, model=convnet
        ) as injector:
            faulty = forward(convnet, images)
        assert injector.stats.elements_faulted > 0
        assert not np.array_equal(faulty, clean)
        for (name, param), before in zip(convnet.named_parameters(), saved):
            np.testing.assert_array_equal(param.data, before, err_msg=name)
        np.testing.assert_array_equal(forward(convnet, images), clean)

    def test_weight_target_requires_model(self):
        with pytest.raises(ValueError, match="model"):
            with hardware_fault_injection(bit_flip(0.1, target="weight"), seed=0):
                pass

    def test_accepts_label_strings(self, convnet, images):
        with hardware_fault_injection("bit_flip@0.01:activation", seed=4) as injector:
            forward(convnet, images)
        assert injector.spec == bit_flip(0.01)

    def test_none_label_rejected(self):
        with pytest.raises(ValueError, match="none"):
            hardware_fault_injection("none", seed=0)

    def test_same_seed_reproduces_faulty_outputs(self, convnet, images):
        with hardware_fault_injection(bit_flip(0.01), seed=11):
            first = forward(convnet, images)
        with hardware_fault_injection(bit_flip(0.01), seed=11):
            second = forward(convnet, images)
        np.testing.assert_array_equal(first, second)

    def test_contexts_nest(self, convnet, images):
        clean = forward(convnet, images)
        with hardware_fault_injection(bit_flip(0.01), seed=1):
            with hardware_fault_injection(bit_flip(0.01), seed=2):
                inner = forward(convnet, images)
            with hardware_fault_injection(bit_flip(0.01), seed=2):
                inner_again = forward(convnet, images)
        np.testing.assert_array_equal(inner, inner_again)
        np.testing.assert_array_equal(forward(convnet, images), clean)


class TestStruckParameters:
    """A weight injection reports which parameters ``perturb`` counted."""

    @staticmethod
    def _counted(monkeypatch) -> dict:
        counts, perturb = {}, HardwareFaultInjector.perturb

        def counting(self, site, array):
            counts[site] = count = perturb(self, site, array)
            return count

        monkeypatch.setattr(HardwareFaultInjector, "perturb", counting)
        return counts

    @pytest.mark.parametrize("spec, struck_unchanged", [
        (bit_flip(1e-3, target="weight"), False),
        # Bit 31 is already set in every negative weight: a count > 0 that
        # changes no byte still counts as struck.
        (stuck_at_1(1e-2, target="weight", bit=31), True),
    ])
    def test_weight_struck_set_is_the_counted_parameters(
        self, convnet, monkeypatch, spec, struck_unchanged
    ):
        counts = self._counted(monkeypatch)
        named = dict(convnet.named_parameters())
        before = {name: param.data.copy() for name, param in named.items()}
        injection = hardware_fault_injection(spec, seed=5, model=convnet)
        with injection:
            unchanged = {
                name for name, param in named.items()
                if param.data.tobytes() == before[name].tobytes()
            }
        counted = {name for name in named if counts[f"weight:{name}"] > 0}
        assert 0 < len(counted) < len(named)
        assert [id(p) for p in injection.struck] == [
            id(param) for name, param in named.items() if name in counted
        ]
        assert bool(counted & unchanged) is struck_unchanged

    def test_activation_struck_set_is_empty(self, convnet, images):
        injection = hardware_fault_injection(bit_flip(0.01), seed=4)
        with injection as injector:
            forward(convnet, images)
        assert injector.stats.elements_faulted > 0
        assert injection.struck == ()
