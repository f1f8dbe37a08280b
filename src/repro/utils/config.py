"""Schema-checked records: the storage of every description.

RADICAL-Pilot descriptions are dict-like objects with a fixed schema.  We use
a small :class:`Config` base that validates keys against a declared schema,
supports defaults, nested access and dict round-tripping.  Descriptions in
:mod:`repro.pilot.description` build on this, and each of them is a slotted
record: it declares ``__slots__`` from its ``_schema``, so an instance keeps
its fields in fixed slots and has no per-instance ``__dict__``.  A slotted
field whose default is an empty container (a task's ``fn_kwargs``,
``input_staging``, ``output_staging`` and ``tags``) is built when it is
first read, so a default ``TaskDescription`` holds about 178 B of traced
heap on CPython 3.11 (418 B while those four were built per instance, and
939 / 770 / 762 / 538 B on CPython 3.10-3.13 while descriptions were
dict-backed); a task bag's descriptions are among the largest live items
at its peak RSS.
"""

from __future__ import annotations

import copy
from functools import partial
from types import MemberDescriptorType
from typing import Any, Callable, Dict, Mapping

__all__ = ["Config", "ConfigError"]


class ConfigError(Exception):
    """Raised for unknown keys or schema violations."""


#: default values safe to share across instances without copying
_IMMUTABLE = (str, int, float, bool, bytes, frozenset, type(None))

#: what a slot built on first read holds until then: no field's schema
#: admits a tuple, so neither a user's write nor ``None`` can look like it
UNBUILT = ()


def _store(cls: type, key: str) -> Callable[[Any, Any], None]:
    """How the constructor writes field *key* of a *cls* instance: through
    its slot's own setter, or, in a class that keeps a ``__dict__``, as a
    plain instance attribute."""
    slot = getattr(cls, "_" + key if key in cls._built_on_read else key,
                   None)
    if isinstance(slot, MemberDescriptorType):
        return slot.__set__
    return lambda obj, value: object.__setattr__(obj, key, value)


def _container_property(slot: MemberDescriptorType,
                        make: Callable[[], Any]) -> property:
    """The field of *slot*, built by *make* on its first read: from then on
    every read returns that container."""
    get, put = slot.__get__, slot.__set__

    def read(self):
        value = get(self)
        if value is UNBUILT:
            value = make()
            put(self, value)
        return value

    return property(read, put)


class Config:
    """A record with schema-checked attribute and item access.

    Subclasses declare ``_schema`` (key -> type, tuple of types, or None
    for any value) and ``_defaults`` (key -> default value).  Unknown keys
    raise :class:`ConfigError` early instead of silently propagating typos.

    A subclass that declares ``__slots__ = tuple(_schema)`` (the keys it
    adds, if its base already slots the rest) keeps its fields in slots;
    one that does not keeps them in its instance ``__dict__``.  Either way
    reading a set field -- ``d.ranks`` on the scheduler's placement path --
    is ordinary attribute lookup and never enters :meth:`__getattr__`.
    Every write is checked: ``__setattr__`` is overridden and the
    constructor checks each keyword.  The mapping reads (``[]``, ``get``,
    ``in``, ``as_dict``, ``==``, ``repr``, copies) see the fields that were
    set, through ``_data``, a mapping built on demand.

    Construction is the control plane's per-task cost (every
    :class:`~repro.pilot.description.TaskDescription` of a million-task
    campaign passes through here), so each class compiles one plan when it
    is defined: the immutable defaults, shared by reference; the container
    defaults, each made fresh per instance (an empty one by its type, a
    nested one by deepcopy); per key, the exact types :meth:`_check` would
    pass through unchanged, so that common keyword values skip it; and per
    key the writer, the slot's own setter.  No merged dict is built unless
    ``from_dict`` is given.

    A slotted field whose default is an empty container is not built per
    instance: its slot holds :data:`UNBUILT`, and the field is a property
    over the slot that builds the container on the first attribute or item
    read (``d.tags``, ``d["tags"]``, ``d.get("tags")``) and returns that
    one from then on.  The mapping reads that copy or compare (``==``,
    ``as_dict``, ``repr``, copies, pickle) see an empty container without
    building one.  The slot itself stays readable as ``_<field>``
    (``d._tags``): the runtime tests it there, so its reads build nothing.
    """

    __slots__ = ()

    _schema: Dict[str, Any] = {}
    _defaults: Dict[str, Any] = {}
    #: (shared defaults, fresh-container makers, key -> exact types,
    #: key -> writer), each default paired with its field's writer
    _plan: tuple = ((), (), {}, {})
    #: field -> the container type its first read builds
    _built_on_read: Dict[str, type] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        lazy = cls._built_on_read = dict(cls._built_on_read)
        for key, value in cls._defaults.items():
            slot = cls.__dict__.get(key)
            if isinstance(slot, MemberDescriptorType) \
                    and isinstance(value, (dict, list, set)) and not value:
                lazy[key] = type(value)
                setattr(cls, "_" + key, slot)
                setattr(cls, key, _container_property(slot, type(value)))
        store = {key: _store(cls, key) for key in cls._schema}
        shared, fresh = [], []
        for key, value in cls._defaults.items():
            if key in lazy:
                shared.append((store[key], UNBUILT))
            elif isinstance(value, _IMMUTABLE) or (
                    isinstance(value, tuple)
                    and all(isinstance(v, _IMMUTABLE) for v in value)):
                shared.append((store[key], value))
            elif isinstance(value, (dict, list, set)) and not value:
                fresh.append((store[key], type(value)))
            else:
                fresh.append((store[key], partial(copy.deepcopy, value)))
        exact = {}
        for key, expected in cls._schema.items():
            if expected is not None:
                types = expected if isinstance(expected, tuple) else (expected,)
                exact[key] = frozenset(types) | {type(None)}
        cls._plan = (tuple(shared), tuple(fresh), exact, store)

    def __init__(self, from_dict: Mapping[str, Any] | None = None, **kwargs: Any) -> None:
        shared, fresh, exact, store = self._plan
        for put, value in shared:
            put(self, value)
        for put, make in fresh:
            put(self, make())
        if from_dict:
            merged = dict(from_dict)
            merged.update(kwargs)
            kwargs = merged
        for key, value in kwargs.items():
            if type(value) not in exact.get(key, ()):
                value = self._check(key, value)
            store[key](self, value)

    @property
    def _data(self) -> Dict[str, Any]:
        """The fields that were set, as a new mapping (a field not built yet
        as a new empty container, which is not kept)."""
        data = {}
        lazy = self._built_on_read
        for key in self._schema:
            try:
                if key in lazy:
                    value = object.__getattribute__(self, "_" + key)
                    data[key] = lazy[key]() if value is UNBUILT else value
                else:
                    data[key] = object.__getattribute__(self, key)
            except AttributeError:
                pass  # declared, never set
        return data

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
        object.__setattr__(self, key, self._check(key, value))

    # -- mapping protocol ----------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        # an attribute read: a field built on first read is built here too
        if key in self._schema:
            try:
                return object.__getattribute__(self, key)
            except AttributeError:
                pass  # declared, never set
        raise KeyError(key)

    __setitem__ = __setattr__

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default

    def as_dict(self) -> Dict[str, Any]:
        """Return a deep copy of the underlying data."""
        return copy.deepcopy(self._data)

    def copy(self) -> "Config":
        return type(self)(from_dict=self.as_dict())

    # copy / deepcopy / pickle carry the set fields, and only those
    def __getstate__(self) -> Dict[str, Any]:
        return self._data

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Config):
            return self._data == other._data
        if isinstance(other, dict):
            return self._data == other
        return NotImplemented

    def __repr__(self) -> str:
        keys = ", ".join(f"{k}={v!r}" for k, v in sorted(self._data.items()))
        return f"{type(self).__name__}({keys})"
