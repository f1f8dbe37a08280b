"""Content-addressed data objects.

The runtime's staging directives name files (``source``/``target``) and
sizes; the data subsystem derives from them a stable *object identity* so
that the same input staged by many tasks -- the Cell Painting pipeline's
1.6 TB Globus dataset, HPO's repeated training features -- is recognised as
*one* object with many copies instead of many unrelated transfers.

* :func:`object_id` -- digest-based content address (source path + size,
  the simulation's stand-in for a real checksum);
* :class:`DataObject` -- one immutable dataset, identity plus size.

Which locations hold a copy of which object is recorded once, by
:class:`repro.data.DataServices`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

__all__ = ["DataObject", "object_id"]


@lru_cache(maxsize=4096)  # asked five times per staged task, SHA-1 each
def object_id(source: str, size_bytes: float) -> str:
    """Content address for a named dataset of a given size."""
    digest = hashlib.sha1(
        f"{source}\x00{int(size_bytes)}".encode()).hexdigest()[:16]
    return f"obj.{digest}"


@dataclass(frozen=True)
class DataObject:
    """One immutable dataset: identity plus size."""

    oid: str
    size_bytes: float
    source: str = ""

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
