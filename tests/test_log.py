"""The CLI log handler follows ``sys.stderr`` instead of binding it once."""

from __future__ import annotations

import io
import logging
import sys

from repro.log import ROOT_LOGGER, get_logger, setup_cli_logging


def test_cli_handler_writes_to_the_current_stderr():
    logger = logging.getLogger(ROOT_LOGGER)
    saved = (list(logger.handlers), logger.level, logger.propagate)
    real_stderr = sys.stderr
    first, second = io.StringIO(), io.StringIO()
    try:
        sys.stderr = first
        setup_cli_logging()
        first.close()  # e.g. a capture stream torn down after its test
        sys.stderr = second
        get_logger("test").warning("after the swap")
    finally:
        sys.stderr = real_stderr
        logger.handlers[:] = saved[0]
        logger.setLevel(saved[1])
        logger.propagate = saved[2]
    assert "after the swap" in second.getvalue()
    assert "Logging error" not in second.getvalue()
