"""Schema-checked records: the storage of every description.

RADICAL-Pilot's descriptions are records with a fixed schema.  Ours are
attribute records on a small :class:`Config` base that checks every field
against a declared schema, applies defaults and round-trips through a dict
(``as_dict`` / ``from_dict``).  Every declared field is stored at build (one
without a default as None), so reading one is a plain attribute read, and
an unknown name raises the interpreter's own ``AttributeError``.  Records
compare and hash by identity.  Descriptions in
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

A record is built in one pass on its class's unchecked *twin* (see
:class:`Config`): a ``TaskDescription`` of three keywords takes 11 call
opcodes and about 2 us on CPython 3.11 (30 and about 4 us while the
constructor wrote each default through its slot's setter).
"""

from __future__ import annotations

import copy
from functools import partial
from types import MemberDescriptorType
from typing import Any, Callable, Dict

__all__ = ["Config", "ConfigError"]


class ConfigError(Exception):
    """Raised for unknown keys or schema violations."""


#: default values safe to share across instances without copying
_IMMUTABLE = (str, int, float, bool, bytes, frozenset, type(None))

#: what a slot built on first read holds until then: no field's schema
#: admits a tuple, so neither a user's write nor ``None`` can look like it
UNBUILT = ()

#: a build function's keyword default for a field whose default container is
#: made per instance
_FRESH = object()


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


class _RecordType(type):
    """The type of every :class:`Config` class: calling a class is the one
    way a record is built."""

    # unannotated: this is the signature every record class shows
    def __call__(cls, from_dict=None, **kwargs):
        if from_dict:
            kwargs = dict(from_dict, **kwargs)
        # every given key is checked in the order it was given, so the
        # first bad one is the one reported
        exact, build, checks = cls._plan
        for key, value in kwargs.items():
            if type(value) not in exact.get(key, ()):
                kwargs[key] = cls._check(key, value)
        self = build(**kwargs)
        for check in checks:
            check(self, kwargs)
        self.__class__ = cls
        return self


class _TwinType(_RecordType):
    """The type of a twin: calling one makes a bare instance."""

    __call__ = type.__call__


def _compile(cls: type) -> Callable[..., Any]:
    """*cls*'s build function: it takes every field as a keyword, its
    default as the keyword's, makes an instance of the twin and stores
    each field with a plain store.  A default container is made
    fresh per instance (an empty one by its type, a nested one by
    deepcopy); a field built on first read stores :data:`UNBUILT` in its
    slot; a field without a default stores None."""
    env: Dict[str, Any] = {"__twin": cls._twin, "__fresh": _FRESH}
    params, body = [], ["    self = __twin()"]
    for i, key in enumerate(cls._schema):
        target = "_" + key if key in cls._built_on_read else key
        value = (UNBUILT if key in cls._built_on_read
                 else cls._defaults.get(key))
        if isinstance(value, _IMMUTABLE) or (
                isinstance(value, tuple)
                and all(isinstance(v, _IMMUTABLE) for v in value)):
            env[f"__d{i}"] = value
            params.append(f"{key}=__d{i}")
            body.append(f"    self.{target} = {key}")
        else:
            env[f"__make{i}"] = (type(value) if isinstance(
                value, (dict, list, set)) and not value
                else partial(copy.deepcopy, value))
            params.append(f"{key}=__fresh")
            body.append(f"    self.{target} = __make{i}() "
                        f"if {key} is __fresh else {key}")
    source = (f"def __build(*, {', '.join(params)}):\n" if params
              else "def __build():\n") + "\n".join(body) \
        + "\n    return self\n"
    exec(compile(source, f"<{cls.__qualname__} build>", "exec"), env)
    return env["__build"]


class Config(metaclass=_RecordType):
    """A record with schema-checked attribute access.

    Subclasses declare ``_schema`` (key -> type, tuple of types, or None
    for any value) and ``_defaults`` (key -> default value; a field without
    one is None).  Unknown keys raise :class:`ConfigError` early instead of
    silently propagating typos.

    A subclass that declares ``__slots__ = tuple(_schema)`` (the keys it
    adds, if its base already slots the rest) keeps its fields in slots;
    one that does not keeps them in its instance ``__dict__``.  Either way
    every field is stored at build, so reading one -- ``d.ranks`` on the
    scheduler's placement path -- is ordinary attribute lookup.  Every
    write is checked: ``__setattr__`` is overridden and the constructor
    checks each keyword.  ``as_dict``, ``repr`` and the copies see the
    fields through ``_data``, a mapping built on demand.

    Construction is the control plane's per-task cost (every
    :class:`~repro.pilot.description.TaskDescription` of a million-task
    campaign passes through here), so a record is built on its class's
    *twin*, made once per class: a subclass that adds no slot and whose
    ``__setattr__`` is ``object.__setattr__``, so its stores are not
    checked.  Calling a class runs the metaclass's ``__call__``, the only
    constructor.  It merges ``from_dict`` under the keywords and checks
    each given value in the order given (:meth:`_check`, skipped for a
    value whose type it passes unchanged).  The class's build function,
    generated once per class, makes a twin instance and stores every
    field, given or default, with a plain store.  Then the
    ``_validate(self, given)`` hook of each class in the MRO runs once,
    base first, and ``__class__`` becomes the class itself.  A twin never
    escapes: if a check raises, it is dropped.  Copies and pickle make the
    instance through ``cls.__new__`` and ``__setstate__``, never through
    the constructor.

    A slotted field whose default is an empty container is not built per
    instance: its slot holds :data:`UNBUILT`, and the field is a property
    over the slot that builds the container on its first read (``d.tags``)
    and returns that one from then on.  The reads that copy (``as_dict``,
    ``repr``, copies, pickle) see an empty container without building one.
    The slot itself stays readable as ``_<field>`` (``d._tags``): the
    runtime tests it there, so its reads build nothing.
    """

    __slots__ = ()

    _schema: Dict[str, Any] = {}
    _defaults: Dict[str, Any] = {}
    #: field -> the container type its first read builds
    _built_on_read: Dict[str, type] = {}
    #: (key -> the exact types :meth:`_check` passes through unchanged,
    #: the build function, the ``_validate`` hooks of the class's MRO, base first)
    _plan: tuple = ({}, None, ())

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if type(cls) is _TwinType:
            return
        if "__init__" in cls.__dict__:
            raise TypeError(f"{cls.__name__}: a record is built by its "
                            f"class's call, which runs no __init__; put "
                            f"its checks in _validate(self, given)")
        lazy = cls._built_on_read = dict(cls._built_on_read)
        for key, value in cls._defaults.items():
            slot = cls.__dict__.get(key)
            if isinstance(slot, MemberDescriptorType) \
                    and isinstance(value, (dict, list, set)) and not value:
                lazy[key] = type(value)
                setattr(cls, "_" + key, slot)
                setattr(cls, key, _container_property(slot, type(value)))
        exact = {}
        for key, expected in cls._schema.items():
            if expected is not None:
                types = expected if isinstance(expected, tuple) else (expected,)
                exact[key] = frozenset(types) | {type(None)}
        cls._twin = _TwinType(
            cls.__name__, (cls,),
            {"__slots__": (), "__setattr__": object.__setattr__,
             "__module__": cls.__module__,
             "__qualname__": f"{cls.__qualname__}.<twin>"})
        cls._plan = (exact, _compile(cls),
                     tuple(klass.__dict__["_validate"]
                           for klass in reversed(cls.__mro__)
                           if "_validate" in klass.__dict__))

    @property
    def _data(self) -> Dict[str, Any]:
        """Every field, as a new mapping (a field not built yet as a new
        empty container, which is not kept)."""
        lazy = self._built_on_read
        data = {key: getattr(self, "_" + key if key in lazy else key)
                for key in self._schema}
        for key, make in lazy.items():
            if data[key] is UNBUILT:
                data[key] = make()
        return data

    # -- validation ---------------------------------------------------------
    @classmethod
    def _check(cls, key: str, value: Any) -> Any:
        if key not in cls._schema:
            raise ConfigError(
                f"{cls.__name__}: unknown key {key!r} "
                f"(known: {sorted(cls._schema)})"
            )
        expected = cls._schema[key]
        if value is None or expected is None:
            return value
        if not isinstance(value, expected):
            # Be forgiving about int/float coercion -- common in descriptions.
            if isinstance(value, int) and float in (
                    expected if isinstance(expected, tuple) else (expected,)):
                return float(value)
            raise ConfigError(
                f"{cls.__name__}.{key}: expected {expected}, "
                f"got {type(value).__name__} ({value!r})"
            )
        return value

    def __setattr__(self, key: str, value: Any) -> None:
        object.__setattr__(self, key, self._check(key, value))

    # -- copies --------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Return a deep copy of the underlying data."""
        return copy.deepcopy(self._data)

    def copy(self) -> "Config":
        return type(self)(from_dict=self.as_dict())

    # copy / deepcopy / pickle carry every field
    def __getstate__(self) -> Dict[str, Any]:
        return self._data

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def __repr__(self) -> str:
        keys = ", ".join(f"{k}={v!r}" for k, v in sorted(self._data.items()))
        return f"{type(self).__name__}({keys})"
