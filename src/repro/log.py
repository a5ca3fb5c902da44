"""The ``repro`` logger hierarchy.

Library modules log through ``logging.getLogger("repro.<area>")`` (via
:func:`get_logger`) and never configure handlers — embedding applications
keep full control.  The CLI calls :func:`setup_cli_logging` once, which
attaches a plain message-only stderr handler to the ``repro`` root logger so
default output is byte-identical to the historical ``print(..., sys.stderr)``
diagnostics; ``--verbose`` lowers the threshold to DEBUG (with a prefixed
format, since debug lines are for humans chasing a problem) and ``--quiet``
raises it to WARNING.
"""

from __future__ import annotations

import logging
import sys
from typing import IO

__all__ = ["get_logger", "setup_cli_logging"]

ROOT_LOGGER = "repro"


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``name`` may omit the prefix)."""
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


class _CurrentStderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is at emit time, never a stale one."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self) -> "IO[str]":  # type: ignore[override]
        return sys.stderr


def setup_cli_logging(
    verbose: bool = False,
    quiet: bool = False,
    stream: "IO[str] | None" = None,
) -> logging.Logger:
    """Configure the ``repro`` root logger for a CLI invocation.

    Idempotent: reconfigures (rather than stacks) the CLI handler, so tests
    calling ``main()`` repeatedly never duplicate output lines.  Without a
    ``stream`` the handler writes to the current ``sys.stderr`` at each emit.
    """
    logger = logging.getLogger(ROOT_LOGGER)
    if verbose:
        level, fmt = logging.DEBUG, "%(name)s: %(message)s"
    elif quiet:
        level, fmt = logging.WARNING, "%(message)s"
    else:
        level, fmt = logging.INFO, "%(message)s"

    for handler in list(logger.handlers):
        if getattr(handler, "_repro_cli", False):
            logger.removeHandler(handler)
    handler = (
        logging.StreamHandler(stream) if stream is not None else _CurrentStderrHandler()
    )
    handler.setFormatter(logging.Formatter(fmt))
    handler._repro_cli = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    logger.setLevel(level)
    # The CLI owns its output; don't also bubble to the (possibly configured)
    # root logger, which would double-print every line.
    logger.propagate = False
    return logger
