"""Logging setup shared across the runtime.

All loggers live under the ``repro`` namespace; :func:`get_logger` returns
namespaced children so users can tune verbosity per subsystem, e.g.::

    import logging
    logging.getLogger("repro.pilot").setLevel(logging.DEBUG)
"""

from __future__ import annotations

import logging
import os

__all__ = ["get_logger"]

_ROOT = "repro"
_CONFIGURED = False


def _configure_root() -> None:
    global _CONFIGURED
    if _CONFIGURED:
        return
    root = logging.getLogger(_ROOT)
    if not root.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
        )
        root.addHandler(handler)
    level = os.environ.get("REPRO_LOG_LEVEL", "WARNING").upper()
    root.setLevel(getattr(logging, level, logging.WARNING))
    root.propagate = False
    _CONFIGURED = True


def get_logger(name: str) -> logging.Logger:
    """Return a logger below the ``repro`` root (``repro.<name>``)."""
    _configure_root()
    if name.startswith(_ROOT):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT}.{name}")

