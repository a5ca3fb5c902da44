"""Statistics for experiment aggregation.

The paper averages 20 repetitions per configuration and reports 95 %
confidence intervals (Figs. 3 & 4 error bars) and "statistically similar"
judgements (§IV-C).  This module provides those: t-based confidence
intervals, Welch's t-test, and a small summary container.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MeanWithCI",
    "mean_confidence_interval",
    "welch_ttest",
    "statistically_similar",
    "summarize",
]


@dataclass(frozen=True)
class MeanWithCI:
    """A sample mean with its symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f} (n={self.n})"


def _is_constant(arr: np.ndarray) -> bool:
    """Whether a non-empty sample holds one value, tested exactly.

    ``std()`` of a constant sample can round above 0 (``[-0.49] * 7`` gives
    1.1e-16), so a spread test on it reads rounding noise as spread.
    """
    return arr.size > 0 and bool(arr.max() == arr.min())


def mean_confidence_interval(
    values: Sequence[float] | np.ndarray, confidence: float = 0.95
) -> MeanWithCI:
    """Sample mean with a t-distribution confidence interval.

    With a single observation, or a constant sample, the half-width is
    exactly 0 (no spread information), matching how single-run smoke
    configurations are reported.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarise zero values")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1); got {confidence}")
    mean = float(arr.mean())
    if _is_constant(arr):
        return MeanWithCI(mean, 0.0, confidence, int(arr.size))
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    if sem == 0.0:
        return MeanWithCI(mean, 0.0, confidence, int(arr.size))
    # Imported on first use: scipy.stats costs ~0.7 s and ~65 MB in every
    # process that loads it, and only a sample with spread needs it.
    from scipy import stats as scipy_stats

    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return MeanWithCI(mean, t_crit * sem, confidence, int(arr.size))


def welch_ttest(
    a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray
) -> tuple[float, float]:
    """Welch's unequal-variance t-test. Returns ``(statistic, p_value)``."""
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("Welch's t-test needs at least two observations per sample")
    # Imported on first use, like in mean_confidence_interval.
    from scipy import stats as scipy_stats

    if not (_is_constant(a) or _is_constant(b)):
        result = scipy_stats.ttest_ind(a, b, equal_var=False)
    else:
        # A constant sample's variance is exactly 0, which scipy's moment
        # check reads as catastrophic cancellation (a "Precision loss"
        # warning); the test from summary statistics has no such check.
        def moments(x: np.ndarray) -> tuple[float, float, int]:
            if _is_constant(x):
                return float(x[0]), 0.0, x.size
            return float(x.mean()), float(x.std(ddof=1)), x.size

        result = scipy_stats.ttest_ind_from_stats(*moments(a), *moments(b), equal_var=False)
    return float(result.statistic), float(result.pvalue)


def statistically_similar(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    alpha: float = 0.05,
) -> bool:
    """True when the two samples are *not* significantly different.

    This is the paper's §IV-C notion of "statistically similar" AD between
    combined-fault and single-fault configurations.  Two constant samples
    compare as similar when their values are close.
    """
    a_arr = np.asarray(list(a), dtype=np.float64)
    b_arr = np.asarray(list(b), dtype=np.float64)
    if _is_constant(a_arr) and _is_constant(b_arr):
        return bool(np.isclose(a_arr[0], b_arr[0]))
    _, p_value = welch_ttest(a_arr, b_arr)
    return p_value >= alpha


def summarize(values: Sequence[float] | np.ndarray) -> dict[str, float]:
    """Mean/std/min/max dictionary for report payloads."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarise zero values")
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "max": float(arr.max()),
        "n": int(arr.size),
    }
