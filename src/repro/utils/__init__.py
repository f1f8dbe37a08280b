"""Shared utilities: identifiers, configuration, logging and typing helpers.

These helpers are intentionally dependency-free (stdlib + numpy only) so that
every other subpackage can import them without cycles.
"""

from .ids import IdRegistry
from .config import Config, ConfigError
from .log import get_logger

__all__ = [
    "IdRegistry",
    "Config",
    "ConfigError",
    "get_logger",
]
