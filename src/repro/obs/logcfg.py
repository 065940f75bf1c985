"""Structured logging for the flow: per-package named loggers.

Every package logs through ``get_logger("<package>")`` — ``repro.salt``,
``repro.partition``, ``repro.cts``, ``repro.flowguard``, … — so a user
can dial one subsystem to DEBUG without drowning in the rest.  Nothing
is emitted unless :func:`configure_logging` (the CLI's ``-v`` /
``--log-level``) installs a handler: library code stays silent by
default, per stdlib convention.

Flow events summarise instead of flooding: :meth:`repro.flowguard.
diagnostics.FlowDiagnostics.record` logs every degradation, retry and
repair at DEBUG as it happens, and :class:`repro.cts.framework.
HierarchicalCTS` logs at most one WARNING per level (the top net
included) once the level's outcomes have merged — counts by event kind
plus one example — so fallback paths stay visible live without one
line per violation.
"""

from __future__ import annotations

import logging

#: Root of the package logger hierarchy.
ROOT_LOGGER_NAME = "repro"

_LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"


def get_logger(name: str) -> logging.Logger:
    """Named logger under the ``repro`` hierarchy (``get_logger("salt")``
    -> ``repro.salt``); a fully-qualified name passes through."""
    if name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def configure_logging(level: int | str = logging.WARNING) -> logging.Logger:
    """Install (or retune) the stderr handler on the ``repro`` root.

    Idempotent: repeated calls adjust the level instead of stacking
    handlers, so tests and long-lived processes can reconfigure freely.
    Returns the root logger.
    """
    if isinstance(level, str):
        parsed = logging.getLevelName(level.upper())
        if not isinstance(parsed, int):
            raise ValueError(f"unknown log level {level!r}")
        level = parsed
    root = logging.getLogger(ROOT_LOGGER_NAME)
    root.setLevel(level)
    for handler in root.handlers:
        if getattr(handler, "_repro_handler", False):
            handler.setLevel(level)
            break
    else:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(_LOG_FORMAT))
        handler.setLevel(level)
        handler._repro_handler = True  # type: ignore[attr-defined]
        root.addHandler(handler)
        root.propagate = False
    return root


def verbosity_to_level(verbosity: int) -> int:
    """Map the CLI's ``-v`` count to a logging level."""
    if verbosity <= 0:
        return logging.WARNING
    if verbosity == 1:
        return logging.INFO
    return logging.DEBUG
