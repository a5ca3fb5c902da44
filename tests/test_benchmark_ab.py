"""The paired A/B tool's summary and verdicts, on canned perfbench output.

``benchmarks/ab.py`` runs perfbench in two trees; everything it concludes
comes from the pure functions tested here, so no subprocess or git runs.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BOUNDS = {"goodput_per_s": ("higher", 0.25), "peak_rss_mb": ("lower", 0.1)}


def _stdout(goodput: float, rss: float = 150.0, correct: bool = True, failed: int = 0) -> str:
    """A perfbench run's stdout: provenance, metric lines, then the result line."""
    result = {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {
            "goodput_per_s": {"value": goodput, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    provenance = {"blas_threads": {"OPENBLAS_NUM_THREADS": "1"}, "nproc": 2, "seed": 1}
    return "\n".join([
        "provenance " + json.dumps(provenance),
        f"study_sweep goodput_per_s = {goodput} 1/s (n=7)",
        'study_sweep details {"goodput_samples": 7}',
        json.dumps(result),
    ])


def _pairs(base, change, rss=None):
    rss = rss or ([150.0] * len(base), [150.0] * len(change))
    return [
        (ab.parse_run(_stdout(b, rb))["result"], ab.parse_run(_stdout(c, rc))["result"])
        for b, c, rb, rc in zip(base, change, *rss)
    ]


def _row(rows, metric):
    return next(r for r in rows if r["metric"] == metric)


class TestParseRun:
    def test_reads_provenance_and_result(self):
        run = ab.parse_run(_stdout(5.0))
        assert run["provenance"]["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1"}
        assert run["result"]["metrics"]["goodput_per_s"]["value"] == 5.0

    def test_output_without_result_is_an_error(self):
        with pytest.raises(ValueError, match="no result line"):
            ab.parse_run("provenance {}\nbenchmark run failed: boom")

    def test_failed_operations_or_checks_fail_the_run(self):
        assert ab.run_ok(ab.parse_run(_stdout(5.0))["result"])
        assert not ab.run_ok(ab.parse_run(_stdout(5.0, failed=1))["result"])
        assert not ab.run_ok(ab.parse_run(_stdout(5.0, correct=False))["result"])


class TestSummary:
    def test_quartiles(self):
        assert ab.quartiles([4.0]) == (4.0, 4.0, 4.0)
        assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)

    def test_claimed_gain(self):
        base = [5.0, 5.1, 4.9, 5.2, 5.0, 4.8, 5.1, 5.0, 4.9, 5.2]
        change = [b * 1.08 for b in base]
        row = _row(ab.summarize(_pairs(base, change), BOUNDS, "goodput_per_s"), "goodput_per_s")
        assert (row["wins"], row["losses"], row["pairs"]) == (10, 0, 10)
        assert row["verdict"] == "gain"
        assert row["ratio"] == pytest.approx(1.08)
        assert row["base"][1] == 5.0

    def test_eight_wins_of_ten_is_not_a_gain(self):
        base = [5.0] * 10
        change = [5.5] * 8 + [4.9, 5.0]  # one loss, one tie
        row = _row(ab.summarize(_pairs(base, change), BOUNDS, "goodput_per_s"), "goodput_per_s")
        assert (row["wins"], row["losses"]) == (8, 1)
        assert row["verdict"] == "not shown"

    def test_gain_must_clear_the_base_spread(self):
        # The change wins every pair, but by less than the base's own IQR.
        base = [4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0]
        change = [b + 0.1 for b in base]
        row = _row(ab.summarize(_pairs(base, change), BOUNDS, "goodput_per_s"), "goodput_per_s")
        assert row["wins"] == 10 and row["verdict"] == "not shown"

    def test_regression_beyond_the_bound(self):
        base, change = [5.0, 5.0, 5.0], [5.0, 5.0, 5.0]
        rss = ([100.0] * 3, [111.0] * 3)  # lower is better; 11 % worse, bound 10 %
        rows = ab.summarize(_pairs(base, change, rss), BOUNDS)
        assert _row(rows, "peak_rss_mb")["verdict"] == "regressed"
        assert _row(rows, "peak_rss_mb")["wins"] == 0
        assert _row(rows, "goodput_per_s")["verdict"] == "within bound"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        base = [3.0, 6.0, 9.0]  # IQR 3 over median 6: wider than 25 %
        change = [3.5, 6.0, 8.0]
        row = _row(ab.summarize(_pairs(base, change), BOUNDS), "goodput_per_s")
        assert row["verdict"] == "unresolved"
        # ... unless every change run beats every base run.
        row = _row(ab.summarize(_pairs(base, [9.5, 9.6, 9.7]), BOUNDS), "goodput_per_s")
        assert row["verdict"] == "within bound"

    def test_table_and_check_line(self):
        pairs = _pairs([5.0, 5.0], [5.5, 5.4])
        lines = ab.format_summary("study_sweep", ab.summarize(pairs, BOUNDS), pairs)
        assert lines[0] == "study_sweep: 2 pairs"
        assert "| `goodput_per_s` (higher is better, bound 25%) | 5 [5–5] | 5.45 [5.425–5.475] | 2/2" in lines[3]
        assert lines[-1] == "every run correct with 0 failed"
        bad = [(pairs[0][0], ab.parse_run(_stdout(5.0, failed=2))["result"])]
        assert ab.format_summary("w", ab.summarize(bad, BOUNDS), bad)[-1] == "CHECK FAILED in 1 runs"

    def test_bounds_and_run_length_come_from_the_benchmark_file(self):
        bounds, seconds = ab.load_benchmark(ROOT / "BENCHMARK.json")
        assert bounds["goodput_per_s"] == ("higher", 0.25)
        assert bounds["peak_rss_mb"] == ("lower", 0.1)
        assert set(bounds) == {"goodput_per_s", "latency_p50_ms", "setup_s", "peak_rss_mb"}
        assert seconds == 30
