"""Golden-archive regression: a checked-in micro-study must reproduce exactly.

``tests/experiments/fixtures/micro_study.json`` is a results archive written
by this file's ``__main__`` block (``PYTHONPATH=src python
tests/experiments/test_golden_archive.py`` regenerates it).  The test re-runs
the identical micro plan from scratch and asserts
:func:`~repro.experiments.persistence.results_equivalent` against the
archive — exact float equality on every accuracy and delta.

This pins the *whole* deterministic pipeline at once: dataset synthesis,
derived seeding, fault injection, technique fitting, and metric computation.
Any unintentional behaviour change anywhere in that chain shows up here as a
diff against the archive, not as a silent drift in study numbers.

The plan uses an explicit :class:`ScaleSettings` (never ``resolve_scale``),
so ``REPRO_SCALE``/``REPRO_EPOCHS``/``REPRO_SEED`` in the environment cannot
change what this test runs.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments import ExperimentRunner, ScaleSettings
from repro.experiments.persistence import (
    load_results,
    results_equivalent,
    save_results,
)
from repro.faults import mislabelling, removal

FIXTURE = Path(__file__).parent / "fixtures" / "micro_study.json"

#: The archived plan.  Small enough to re-run in a few seconds, but wide
#: enough to exercise clean + faulty cells and three techniques.  The
#: ensemble cell trains the paper's five members (§III-B5), so batch norm
#: and depthwise convolution, on 2x2 maps among others, are pinned here too.
SCALE = ScaleSettings(
    name="golden-fixture",
    dataset_sizes={"pneumonia": (40, 24)},
    image_size=16,
    epochs=2,
    batch_size=8,
    repeats=1,
    seed=7,
)
CELLS = [
    ("pneumonia", "convnet", "baseline", None),
    ("pneumonia", "convnet", "baseline", mislabelling(0.3)),
    ("pneumonia", "convnet", "label_smoothing", mislabelling(0.3)),
    ("pneumonia", "convnet", "baseline", removal(0.3)),
    ("pneumonia", "convnet", "ensemble", mislabelling(0.3)),
]


def run_micro_study():
    """Train the archived plan from scratch (fresh runner, no caches)."""
    runner = ExperimentRunner(SCALE)
    return [
        runner.run(dataset, model, technique, fault)
        for dataset, model, technique, fault in CELLS
    ]


def test_micro_study_matches_archive():
    assert FIXTURE.exists(), (
        f"missing fixture {FIXTURE}; regenerate with "
        f"'PYTHONPATH=src python {Path(__file__).relative_to(Path.cwd())}'"
    )
    archived = load_results(FIXTURE)
    assert len(archived) == len(CELLS)
    fresh = run_micro_study()
    for fresh_result, archived_result in zip(fresh, archived):
        assert fresh_result.config == archived_result.config
    assert results_equivalent(fresh, archived), (
        "micro-study results diverged from the golden archive — a behaviour "
        "change in data synthesis, seeding, fault injection, training, or "
        "metrics; if intentional, regenerate the fixture"
    )


def test_archive_covers_the_declared_plan():
    """The fixture's configs are exactly the CELLS plan, in order."""
    archived = load_results(FIXTURE)
    expected = [
        (dataset, model, technique, fault.label if fault else "none")
        for dataset, model, technique, fault in CELLS
    ]
    actual = [
        (r.config.dataset, r.config.model, r.config.technique, r.config.fault_label)
        for r in archived
    ]
    assert actual == expected
    for result in archived:
        assert result.config.scale == SCALE.name
        assert len(result.repetitions) == SCALE.repeats


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    save_results(run_micro_study(), FIXTURE)
    print(f"regenerated {FIXTURE}")
