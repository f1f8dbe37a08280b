"""Lightweight attribute-dict configuration objects.

RADICAL-Pilot descriptions are dict-like objects with a fixed schema.  We use
a small :class:`Config` base that validates keys against a declared schema,
supports defaults, nested access and dict round-tripping.  Descriptions in
:mod:`repro.pilot.description` build on this.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Mapping

__all__ = ["Config", "ConfigError"]


class ConfigError(Exception):
    """Raised for unknown keys or schema violations."""


#: default values safe to share across instances without copying
_IMMUTABLE = (str, int, float, bool, bytes, frozenset, type(None))


class Config:
    """A dict-backed object with schema-checked attribute access.

    Subclasses declare ``_schema`` (key -> type or tuple of types) and
    ``_defaults`` (key -> default value).  Unknown keys raise
    :class:`ConfigError` early instead of silently propagating typos.

    The backing dict *is* the instance ``__dict__`` (``_data`` is the
    mapping view of it), so reading a set field -- ``d.ranks`` on the
    scheduler's placement path -- is ordinary attribute lookup and never
    enters :meth:`__getattr__`.  Every write still goes through
    :meth:`_check`: ``__setattr__`` is overridden, and nothing else puts
    keys into the instance dict.

    Default materialization is the control plane's per-task constructor
    cost (every :class:`~repro.pilot.description.TaskDescription` of a
    million-task campaign passes through here), so defaults are *not*
    deep-copied wholesale: each class caches, once, which defaults are
    immutable (shared by reference) and which are containers (copied
    per instance -- empty containers by construction, nested ones by
    deepcopy).  Semantics are identical to the seed's full deepcopy.
    """

    _schema: Dict[str, Any] = {}
    _defaults: Dict[str, Any] = {}

    @classmethod
    def _default_plan(cls):
        """(shared-defaults dict, [(key, copier), ...]) for this class."""
        plan = cls.__dict__.get("_default_plan_cache")
        if plan is None:
            shared: Dict[str, Any] = {}
            copied = []
            for key, value in cls._defaults.items():
                if isinstance(value, _IMMUTABLE) or (
                        isinstance(value, tuple)
                        and all(isinstance(v, _IMMUTABLE) for v in value)):
                    shared[key] = value
                elif isinstance(value, (dict, list, set)) and not value:
                    copied.append((key, type(value)))
                else:
                    copied.append(
                        (key, lambda v=value: copy.deepcopy(v)))
            plan = (shared, tuple(copied))
            cls._default_plan_cache = plan
        return plan

    def __init__(self, from_dict: Mapping[str, Any] | None = None, **kwargs: Any) -> None:
        shared, copied = self._default_plan()
        data = self.__dict__
        data.update(shared)
        for key, make in copied:
            data[key] = make()
        merged: Dict[str, Any] = {}
        if from_dict:
            merged.update(from_dict)
        merged.update(kwargs)
        for key, value in merged.items():
            data[key] = self._check(key, value)

    @property
    def _data(self) -> Dict[str, Any]:
        """The fields as a mapping: the instance ``__dict__`` itself."""
        return self.__dict__

    # -- validation ---------------------------------------------------------
    def _check(self, key: str, value: Any) -> Any:
        if key not in self._schema:
            raise ConfigError(
                f"{type(self).__name__}: unknown key {key!r} "
                f"(known: {sorted(self._schema)})"
            )
        expected = self._schema[key]
        if value is None or expected is None:
            return value
        if not isinstance(value, expected):
            # Be forgiving about int/float coercion -- common in descriptions.
            if expected in (float, (float,)) and isinstance(value, int):
                return float(value)
            if isinstance(expected, tuple) and float in expected and isinstance(value, int):
                return float(value)
            raise ConfigError(
                f"{type(self).__name__}.{key}: expected {expected}, "
                f"got {type(value).__name__} ({value!r})"
            )
        return value

    # -- attribute protocol -------------------------------------------------
    def __getattr__(self, key: str) -> Any:
        # reached only for names ordinary lookup did not find: a declared
        # field that was never set reads as None, anything else is an error
        if key in self._schema:
            return None
        raise AttributeError(f"{type(self).__name__} has no attribute {key!r}")

    def __setattr__(self, key: str, value: Any) -> None:
        self.__dict__[key] = self._check(key, value)

    # -- mapping protocol ----------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    __setitem__ = __setattr__

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def as_dict(self) -> Dict[str, Any]:
        """Return a deep copy of the underlying data."""
        return copy.deepcopy(self._data)

    def copy(self) -> "Config":
        return type(self)(from_dict=self.as_dict())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Config):
            return self._data == other._data
        if isinstance(other, dict):
            return self._data == other
        return NotImplemented

    def __repr__(self) -> str:
        keys = ", ".join(f"{k}={v!r}" for k, v in sorted(self._data.items()))
        return f"{type(self).__name__}({keys})"
