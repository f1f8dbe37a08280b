"""Schema-checked records: the storage of every description.

RADICAL-Pilot's descriptions are records with a fixed schema.  Ours are
attribute records on a small :class:`Config` base that checks each field
against a declared schema, applies defaults and round-trips through a dict
(``as_dict`` / ``from_dict``).  Every field is stored at build, so a read
is a plain attribute read; records compare and hash by identity.  The
descriptions of :mod:`repro.pilot.description` are slotted records whose
empty-container fields are built on first read: a default
``TaskDescription`` holds about 178 B of traced heap on CPython 3.11.  Each
record class has one constructor, an ``__init__`` generated from its
schema: a ``TaskDescription`` of three keywords enters that one function
and takes 5 call opcodes (``benchmarks/profile_hotpath.py``).
"""

from __future__ import annotations

import copy
import enum
from functools import partial
from types import MemberDescriptorType
from typing import Any, Callable, Dict, NamedTuple, Optional

__all__ = ["Config", "ConfigError", "Rule"]


class ConfigError(Exception):
    """Raised for unknown keys or schema violations."""


class Rule(NamedTuple):
    """A field's own check, written into its class's constructor: a given
    value must stand in relation *op* (``">="``, ``">"`` or ``"in"``) to
    *operand* (``not value >= operand``: NaN fails), or :class:`ConfigError`
    is raised with *message* formatted with the value."""

    op: str
    operand: Any
    message: str


#: default values safe to share across instances without copying
_IMMUTABLE = (str, int, float, bool, bytes, frozenset, type(None))

#: what a slot built on first read holds until then: no field's schema
#: admits a tuple, so neither a user's write nor ``None`` can look like it
UNBUILT = ()

#: every constructor keyword's default: the field was not given
_NOT_GIVEN = enum.Enum("_Given", {"NOT": "not given"}).NOT


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


def _compile(cls: type, hook: Optional[Callable[[Any], None]]
             ) -> Callable[..., None]:
    """*cls*'s ``__init__``: ``from_dict`` merged under keywords that
    default to ``_NOT_GIVEN``, an unknown key refused; one pass in schema
    order that gives a field not given its default (a container fresh,
    :data:`UNBUILT` if built on read) and checks a given one's type at once
    (an exact schema type skips :meth:`Config._check`) and its rule after
    the pass, so wrong types come before bad values; then a plain store of
    every field on the twin, and *hook*."""
    env: Dict[str, Any] = {
        "__ng": _NOT_GIVEN, "__keys": frozenset(cls._schema),
        "__check": cls._check, "__E": ConfigError, "__twin": cls._twin,
        "__cls": cls, "__retype": object.__dict__["__class__"].__set__,
        "__hook": hook}
    params, merge, checks, stores = [], [], [], []
    for i, (key, expected) in enumerate(cls._schema.items()):
        default, target = cls._defaults.get(key), key
        if key in cls._built_on_read:
            target, default = "_" + key, UNBUILT
        if isinstance(default, _IMMUTABLE) or (
                isinstance(default, tuple)
                and all(isinstance(v, _IMMUTABLE) for v in default)):
            env[f"__d{i}"] = default
            made = f"__d{i}"
        else:
            env[f"__make{i}"] = (type(default) if isinstance(
                default, (dict, list, set)) and not default
                else partial(copy.deepcopy, default))
            made = f"__make{i}()"
        params.append(f"{key}=__ng")
        merge.append(f"        if {key} is __ng:\n"
                     f"            {key} = from_dict.get({key!r}, __ng)")
        stores.append(f"    self.{target} = {key}")
        given = []
        if expected is not None:
            types = expected if isinstance(expected, tuple) else (expected,)
            env[f"__t{i}"] = frozenset(
                types + ((type(None),) if default is None else ()))
            given.append(f"        if type({key}) not in __t{i}:\n"
                         f"            {key} = __check({key!r}, {key})")
        rule = cls._rules.get(key)
        if isinstance(rule, Rule):
            env[f"__o{i}"], env[f"__m{i}"] = rule.operand, rule.message
            given.append(f"        if not {key} {rule.op} __o{i} "
                         f"and __bad is None:\n"
                         f"            __bad = __E(__m{i}.format({key}))")
        elif rule is not None:
            env[f"__r{i}"] = rule
            given.append(f"        try:\n"
                         f"            {key} = __r{i}({key})\n"
                         f"        except __E as __failed:\n"
                         f"            if __bad is None:\n"
                         f"                __bad = __failed")
        checks.append(f"    if {key} is __ng:\n        {key} = {made}")
        if given:
            checks.append("    else:\n" + "\n".join(given))
    source = "\n".join([
        f"def __init__(self, /, from_dict=None, "
        f"{''.join(p + ', ' for p in (['*', *params] if params else []))}"
        f"**unknown):",
        "    if from_dict or unknown:",
        "        if unknown or not __keys.issuperset(from_dict):",
        "            for __key in (*(from_dict or ()), *unknown):",
        "                if __key not in __keys:",
        "                    __check(__key, None)",
        *merge,
        "    __bad = None",
        *checks,
        "    if __bad is not None:",
        "        raise __bad",
        "    __retype(self, __twin)",
        *stores,
        "    self.__class__ = __cls",
        *(["    __hook(self)"] if hook is not None else []), ""])
    exec(compile(source, f"<{cls.__qualname__} constructor>", "exec"), env)
    return env["__init__"]


class Config:
    """A record with schema-checked attribute access.

    Subclasses declare ``_schema`` (key -> type, tuple of types, or None
    for any value), ``_defaults`` (a field without one is None) and
    ``_rules`` (key -> a :class:`Rule`, or a function that returns the
    value to store or raises :class:`ConfigError`); a check of several
    fields, or of one that must be given, is ``_validate(self)``, run once
    every field is stored.  ``None`` is a value only of a field whose
    default is None.  ``__slots__ = tuple(_schema)`` keeps the fields in
    slots.  Every write is checked: ``__setattr__`` is overridden.

    ``__init_subclass__`` generates each class's ``__init__`` (see
    :func:`_compile`; a record class defines none) and checks every default
    with it, once.  It stores on the class's *twin*, a subclass whose
    ``__setattr__`` is ``object.__setattr__``; no check runs after the
    switch, so a twin never escapes.  Copies and pickle go through
    ``cls.__new__`` and ``__setstate__``.  A slotted field whose default is
    an empty container holds :data:`UNBUILT` until its first read
    (``d.tags``) builds it; the copying reads build none, and the runtime
    tests the raw slot (``d._tags``).
    """

    __slots__ = ()

    _schema: Dict[str, Any] = {}
    _defaults: Dict[str, Any] = {}
    _rules: Dict[str, Any] = {}
    #: field -> the container type its first read builds
    _built_on_read: Dict[str, type] = {}

    def __init_subclass__(cls, twin: bool = False, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if twin:
            return
        if "__init__" in cls.__dict__:
            raise TypeError(f"{cls.__name__}: the constructor is generated; "
                            f"put a field's check in _rules, one that reads "
                            f"several fields in _validate(self)")
        lazy = cls._built_on_read = dict(cls._built_on_read)
        for key, value in cls._defaults.items():
            slot = cls.__dict__.get(key)
            if isinstance(slot, MemberDescriptorType) \
                    and isinstance(value, (dict, list, set)) and not value:
                lazy[key] = type(value)
                setattr(cls, "_" + key, slot)
                setattr(cls, key, _container_property(slot, type(value)))
        cls._twin = type(cls.__name__, (cls,), {
            "__slots__": (), "__setattr__": object.__setattr__,
            "__module__": cls.__module__,
            "__qualname__": f"{cls.__qualname__}.<twin>"}, twin=True)
        # every default passes the checks a given value does, once
        _compile(cls, None)(cls.__new__(cls), **cls._defaults)
        cls.__init__ = _compile(cls, getattr(cls, "_validate", None))

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
        if expected is None or (value is None
                                and cls._defaults.get(key) is None):
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
