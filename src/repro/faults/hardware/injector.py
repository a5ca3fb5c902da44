"""Seeded, deterministic hardware-fault injection over kernel outputs/weights.

The injector applies a :class:`~repro.faults.hardware.spec.HardwareFaultSpec`
to float32 arrays by manipulating their IEEE-754 bit patterns through a
``uint32`` view.  Determinism discipline matches the study harness: every
struck tensor gets its own RNG derived by CRC32 from ``(seed, spec label,
site, visit index)``, so the k-th conv2d output of a forward pass is always
corrupted at the same element/bit positions for a given seed — across runs,
threads, and worker processes (Python's salted ``hash()`` is never used).

:class:`hardware_fault_injection` is the arming context manager:

- ``activation`` targets install a kernel output tap
  (:func:`repro.nn.functional.kernel_tap_scope`) on the calling thread; the
  op registry runs it on each tap-site op's output (:mod:`repro.nn.ops`), so
  eager, compiled-replay and forward-plan passes strike the same sites;
- ``weight`` targets snapshot the model's parameters, corrupt them in place
  (an upset persisting for the context's lifetime), and restore the saved
  bytes bitwise on exit.

Exiting the context always restores bitwise-clean inference.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from ...nn.context import scope
from ...nn.functional import kernel_tap_scope
from .spec import FaultTarget, HardwareFaultSpec, HardwareFaultType, hardware_spec_from_label

__all__ = [
    "FlipRecord",
    "InjectionStats",
    "HardwareFaultInjector",
    "hardware_fault_injection",
    "derive_site_seed",
]


def derive_site_seed(seed: int, label: str, site: str, index: int) -> int:
    """Stable per-site RNG seed: CRC32 of ``(seed, spec label, site, visit)``.

    The same derivation trick as
    :func:`repro.experiments.config.derive_repetition_seed` — identical
    across processes, so serial and ``--jobs N`` campaigns flip the same bits.
    """
    key = f"{seed}|{label}|{site}|{index}".encode()
    return zlib.crc32(key) & 0x7FFFFFFF


@dataclass(frozen=True)
class FlipRecord:
    """One corrupted element: where it was struck and how its bits changed.

    ``bit`` is ``-1`` for ``random_value`` faults (no single bit position);
    ``before``/``after`` are the uint32 bit patterns, so determinism tests can
    compare exact flip sites across runs and workers.
    """

    site: str
    index: int
    bit: int
    before: int
    after: int


@dataclass
class InjectionStats:
    """Aggregate tallies for one armed injector."""

    tensors_seen: int = 0
    tensors_hit: int = 0
    elements_faulted: int = 0


class HardwareFaultInjector:
    """Applies one spec to arrays, deterministically per ``(seed, site, visit)``.

    ``record_sites=True`` additionally stores a :class:`FlipRecord` per
    corrupted element in :attr:`flips` — the evidence the determinism property
    tests compare; campaigns leave it off to keep trials allocation-free.
    """

    def __init__(
        self, spec: HardwareFaultSpec, seed: int, record_sites: bool = False
    ) -> None:
        self.spec = spec
        self.seed = int(seed)
        self.record_sites = record_sites
        self.stats = InjectionStats()
        self.flips: list[FlipRecord] = []
        self._site_counts: dict[str, int] = {}

    def flip_signature(self) -> tuple:
        """Hashable summary of every recorded flip (requires ``record_sites``)."""
        return tuple((f.site, f.index, f.bit, f.after) for f in self.flips)

    def perturb(self, site: str, array: np.ndarray) -> int:
        """Corrupt ``array`` in place per the spec; returns elements faulted.

        Each call advances the per-``site`` visit counter, so repeated strikes
        of the same op within one armed context draw independent (but
        deterministic) fault positions.  Non-contiguous arrays (e.g. a
        transposed view) are corrupted via a copy-and-write-back path that
        lands on the same elements.
        """
        index = self._site_counts.get(site, 0)
        self._site_counts[site] = index + 1
        self.stats.tensors_seen += 1
        rng = np.random.default_rng(
            derive_site_seed(self.seed, self.spec.label, site, index)
        )
        if self.spec.tensor_probability < 1.0 and rng.random() >= self.spec.tensor_probability:
            return 0
        contiguous = array.flags["C_CONTIGUOUS"]
        flat = array.reshape(-1) if contiguous else array.ravel()  # ravel copies here
        count = self._fault(flat, rng, f"{site}#{index}")
        if count and not contiguous:
            array[...] = flat.reshape(array.shape)
        if count:
            self.stats.tensors_hit += 1
            self.stats.elements_faulted += count
        return count

    def _fault(self, flat: np.ndarray, rng: np.random.Generator, site_tag: str) -> int:
        idx = np.flatnonzero(rng.random(flat.size) < self.spec.rate)
        if idx.size == 0:
            return 0
        if self.spec.fault_type is HardwareFaultType.RANDOM_VALUE:
            before = flat.view(np.uint32)[idx].copy() if self.record_sites else None
            amax = float(np.abs(flat).max()) or 1.0
            flat[idx] = rng.uniform(-amax, amax, idx.size).astype(flat.dtype)
            bits = np.full(idx.size, -1)
        else:
            if flat.dtype != np.float32:
                raise TypeError(
                    f"bit-level faults need float32 arrays; got dtype {flat.dtype}"
                )
            if self.spec.bit is not None:
                bits = np.full(idx.size, self.spec.bit, dtype=np.uint32)
            else:
                bits = rng.integers(0, 32, idx.size, dtype=np.uint32)
            masks = (np.uint32(1) << bits).astype(np.uint32)
            view = flat.view(np.uint32)
            before = view[idx].copy() if self.record_sites else None
            if self.spec.fault_type is HardwareFaultType.BIT_FLIP:
                view[idx] ^= masks
            elif self.spec.fault_type is HardwareFaultType.STUCK_AT_0:
                view[idx] &= ~masks
            else:  # STUCK_AT_1
                view[idx] |= masks
        if self.record_sites:
            after = flat.view(np.uint32)[idx]
            self.flips.extend(
                FlipRecord(site_tag, int(i), int(b), int(pre), int(post))
                for i, b, pre, post in zip(idx, bits, before, after)
            )
        return int(idx.size)


class hardware_fault_injection:
    """Arm an injector for the duration of a ``with`` block.

    >>> with hardware_fault_injection(spec, seed=7, model=net) as injector:
    ...     faulty = predict_labels(net, images)
    ... # weights / kernel outputs are bitwise-clean again here

    ``model`` is required for ``weight`` targets (its parameters are struck
    once on entry — a persistent upset — and restored bitwise on exit) and
    ignored for ``activation`` targets, which corrupt kernel outputs through
    the calling thread's kernel tap while the context is active.  ``spec`` may be a
    :class:`HardwareFaultSpec` or its label string.

    After entry, :attr:`struck` holds the parameters a weight target faulted
    (those ``perturb`` counted elements in, even a stuck-at bit that was
    already set); it stays empty for an activation target.
    """

    def __init__(
        self,
        spec: "HardwareFaultSpec | str",
        seed: int,
        model=None,
        record_sites: bool = False,
    ) -> None:
        if isinstance(spec, str):
            parsed = hardware_spec_from_label(spec)
            if parsed is None:
                raise ValueError("cannot arm injection with the 'none' spec")
            spec = parsed
        self.spec = spec
        self.seed = int(seed)
        self.model = model
        self.record_sites = record_sites
        self.injector: HardwareFaultInjector | None = None
        self.struck: tuple = ()
        self._saved: "list[tuple[object, np.ndarray]] | None" = None
        self._tap: scope | None = None

    def __enter__(self) -> HardwareFaultInjector:
        self.injector = HardwareFaultInjector(
            self.spec, self.seed, record_sites=self.record_sites
        )
        if self.spec.target is FaultTarget.WEIGHT:
            if self.model is None:
                raise ValueError("weight-target injection needs model=<Module>")
            named = list(self.model.named_parameters())
            self._saved = [(param, param.data.copy()) for _, param in named]
            self.struck = tuple(
                param for name, param in named
                if self.injector.perturb(f"weight:{name}", param.data)
            )
        else:
            self._tap = kernel_tap_scope(self._on_kernel_output)
            self._tap.__enter__()
        return self.injector

    def _on_kernel_output(self, site: str, array: np.ndarray) -> None:
        self.injector.perturb(site, array)

    def __exit__(self, *exc_info: object) -> None:
        if self._tap is not None:
            self._tap.__exit__(*exc_info)
            self._tap = None
        if self._saved is not None:
            for param, saved in self._saved:
                param.data[...] = saved
            self._saved = None
