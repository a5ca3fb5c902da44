"""repro — reproduction of "The Fault in Our Data Stars" (DSN 2022).

A study of training-data fault mitigation (TDFM) techniques: label smoothing,
label correction, robust loss, knowledge distillation, and ensembles, compared
under mislabelling / repetition / removal faults across three datasets and
seven neural-network architectures.

Public surface:

- :mod:`repro.nn` -- NumPy deep-learning framework (the substrate)
- :mod:`repro.data` -- datasets (synthetic stand-ins for CIFAR-10/GTSRB/Pneumonia)
- :mod:`repro.faults` -- training-data fault injection
- :mod:`repro.models` -- the seven architectures of paper Table III
- :mod:`repro.mitigation` -- the five TDFM techniques (the paper's subject)
- :mod:`repro.metrics` -- accuracy delta (AD), confidence intervals, overheads
- :mod:`repro.experiments` -- the study harness and per-table/figure drivers
- :mod:`repro.survey` -- the Table I technique catalog and selection
- :mod:`repro.analysis` -- mechanism analyses (memorization, diversity, per-class AD)
- :mod:`repro.telemetry` -- structured trace events, span timers, live sweep progress
- :mod:`repro.serve` -- model registry, replicated serving fleet, HTTP endpoint
"""

import importlib

__version__ = "1.0.0"

#: Subpackages resolved on first access (PEP 562), so ``import repro`` loads
#: none of them and each entry point pays only for the modules it uses.
_SUBPACKAGES = (
    "analysis",
    "nn",
    "data",
    "faults",
    "models",
    "mitigation",
    "metrics",
    "experiments",
    "survey",
    "telemetry",
    "serve",
)

__all__ = [*_SUBPACKAGES, "__version__"]


def __getattr__(name: str):
    """Import subpackage ``name`` on first access (``repro.nn``, ``from repro import nn``)."""
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    """The module's names, including subpackages not imported yet."""
    return sorted({*globals(), *_SUBPACKAGES})
