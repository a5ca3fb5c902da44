"""Cold start: entry points load scipy and the subpackages only on first use.

``scipy.stats`` costs about 0.7 s and 65 MB per process, and only the
statistics of ``repro.metrics.stats`` use it.  Each check runs in a fresh
interpreter, since the test process itself has long loaded everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Appended to every script: the loaded ``repro`` and ``scipy`` modules.
REPORT = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m.split('.')[0] in ('repro', 'scipy'))))\n"
)


def run_fresh(script: str) -> tuple[list[str], list[str]]:
    """Run ``script`` in a fresh interpreter.

    Returns its stdout lines and the ``repro``/``scipy`` modules loaded at
    its end.
    """
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", script + REPORT],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    ).stdout.splitlines()
    return out[:-1], json.loads(out[-1])


def loaded_after(script: str) -> list[str]:
    return run_fresh(script)[1]


def scipy_modules(modules: list[str]) -> list[str]:
    return [m for m in modules if m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("module", [
    "repro.cli",
    "repro.experiments.executors",
    "repro.experiments.plan",
    "repro.faults.hardware.campaign",
    "repro.serve",
])
def test_entry_point_import_loads_no_scipy(module):
    assert scipy_modules(loaded_after(f"import {module}")) == []


def test_cli_loads_no_serving_or_survey_module():
    # Only `serve` and `table1` use them; a study, a worker or a campaign
    # never does.
    modules = loaded_after("import repro.cli\nrepro.cli.build_parser()")
    assert [m for m in modules if m.startswith(("repro.serve", "repro.survey"))] == []


def test_package_root_loads_no_subpackage():
    assert loaded_after("import repro") == ["repro"]


def test_subpackage_attribute_loads_on_first_access():
    modules = loaded_after("import repro\nassert repro.telemetry.__name__ == 'repro.telemetry'")
    assert "repro.telemetry" in modules
    assert "repro.serve" not in modules and "repro.experiments" not in modules


def test_constant_sample_statistics_load_no_scipy():
    modules = loaded_after(
        "from repro.metrics.stats import mean_confidence_interval, statistically_similar\n"
        "assert mean_confidence_interval([-0.49] * 7).half_width == 0.0\n"
        "assert mean_confidence_interval([0.3]).half_width == 0.0\n"
        "assert statistically_similar([-0.49] * 2, [-0.49] * 7)\n"
    )
    assert scipy_modules(modules) == []


def test_first_interval_with_spread_loads_scipy():
    values = [0.12, 0.31, 0.18, 0.27, 0.22]
    script = (
        "import sys\n"
        "from repro.metrics.stats import mean_confidence_interval\n"
        "assert 'scipy' not in sys.modules\n"
        f"print(repr(mean_confidence_interval({values!r}).half_width))\n"
    )
    lines, modules = run_fresh(script)
    half_width = float(lines[-1])
    assert "scipy.stats" in modules

    n = len(values)
    sem = float(np.std(values, ddof=1) / np.sqrt(n))
    assert half_width == float(scipy.stats.t.ppf(0.975, n - 1)) * sem
