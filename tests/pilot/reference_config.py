"""The dict-backed descriptions, kept as the test reference.

Until descriptions became slotted records, :class:`Config` kept every
field in the instance ``__dict__`` (``_data`` was that dict), built each
instance by copying the class's shared defaults into it, merged
``from_dict`` and the keywords into one dict and checked every value, and
:class:`TaskDescription` rebuilt both staging lists on every construction.
This module is that code, unchanged in behaviour: ``Config`` and the four
description classes, under their shipped names so that every
:class:`~repro.utils.config.ConfigError` message reads the same.
``tests/test_properties.py`` builds and writes both forms with the same
random keywords and holds them to the same views, or the same error.

Its range checks refuse NaN the way the shipped ones do (``not x >= 0``),
so that both forms raise the same error for the same value.  Do not
optimise this module: its value is being obviously the original.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Mapping

from repro.utils.config import ConfigError

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


class StagingDirective(Config):
    """One data-staging action attached to a task.

    ``action`` is one of ``transfer`` (cross-platform copy over the fabric),
    ``copy`` (intra-platform copy) or ``link`` (no data movement).  Sizes
    drive the fabric's bandwidth model.
    """

    _schema = {
        "source": str,
        "target": str,
        "action": str,
        "size_bytes": (int, float),
    }
    _defaults = {"action": "transfer", "size_bytes": 0, "source": "",
                 "target": ""}

    ACTIONS = ("transfer", "copy", "link")

    def __init__(self, from_dict=None, **kwargs) -> None:
        super().__init__(from_dict, **kwargs)
        if self.action not in self.ACTIONS:
            raise ConfigError(
                f"staging action {self.action!r} not in {self.ACTIONS}")
        if not self.size_bytes >= 0:
            raise ConfigError("size_bytes must be >= 0")


class PilotDescription(Config):
    """Resource request for one pilot job."""

    _schema = {
        "resource": str,          # platform name (repro.hpc.platform)
        "nodes": int,             # whole-node allocation size
        "cores": int,             # alternative: derive nodes from cores
        "gpus": int,              # alternative: derive nodes from gpus
        "runtime_s": (int, float),  # walltime
    }
    _defaults = {"nodes": 0, "cores": 0, "gpus": 0, "runtime_s": 3600.0}

    def __init__(self, from_dict=None, **kwargs) -> None:
        super().__init__(from_dict, **kwargs)
        if not self.resource:
            raise ConfigError("PilotDescription.resource is required")
        if self.nodes <= 0 and self.cores <= 0 and self.gpus <= 0:
            raise ConfigError(
                "PilotDescription needs nodes, cores or gpus > 0")
        if not self.runtime_s > 0:
            raise ConfigError("runtime_s must be positive")

    def required_nodes(self, cores_per_node: int, gpus_per_node: int) -> int:
        """Whole nodes needed on a platform with the given per-node shape."""
        need = self.nodes
        if self.cores > 0:
            need = max(need, -(-self.cores // cores_per_node))
        if self.gpus > 0:
            if gpus_per_node == 0:
                raise ConfigError("pilot requests GPUs on a GPU-less platform")
            need = max(need, -(-self.gpus // gpus_per_node))
        return max(1, need)


class TaskDescription(Config):
    """Specification of one compute task.

    Execution payload is either an ``executable`` (modeled duration) or a
    Python ``function`` (really executed; see
    :mod:`repro.pilot.agent.executor`).  Resource shape follows RP:
    ``ranks`` x (``cores_per_rank``, ``gpus_per_rank``).
    """

    _schema = {
        "name": str,
        "executable": str,
        "function": None,          # callable; validated below
        "fn_args": tuple,
        "fn_kwargs": dict,
        "ranks": int,
        "cores_per_rank": int,
        "gpus_per_rank": int,
        "mem_per_rank_gb": (int, float),
        "duration_s": (int, float),   # modeled compute duration
        "duration_jitter_s": (int, float),
        "pre_exec_s": (int, float),   # environment setup cost
        "input_staging": list,        # list[StagingDirective|dict]
        "output_staging": list,
        "tags": dict,                 # scheduler hints
        "priority": int,              # higher runs earlier
        "pilot": str,                 # optional explicit pilot uid binding
    }
    _defaults: Dict[str, Any] = {
        "name": "",
        "executable": "",
        "function": None,
        "fn_args": (),
        "fn_kwargs": {},
        "ranks": 1,
        "cores_per_rank": 1,
        "gpus_per_rank": 0,
        "mem_per_rank_gb": 0.0,
        "duration_s": 0.0,
        "duration_jitter_s": 0.0,
        "pre_exec_s": 0.0,
        "input_staging": [],
        "output_staging": [],
        "tags": {},
        "priority": 0,
        "pilot": "",
    }

    def __init__(self, from_dict=None, **kwargs) -> None:
        super().__init__(from_dict, **kwargs)
        if self.function is not None and not callable(self.function):
            raise ConfigError("TaskDescription.function must be callable")
        if self.ranks < 1:
            raise ConfigError("ranks must be >= 1")
        if self.cores_per_rank < 1:
            raise ConfigError("cores_per_rank must be >= 1")
        if self.gpus_per_rank < 0:
            raise ConfigError("gpus_per_rank must be >= 0")
        if not (self.duration_s >= 0 and self.pre_exec_s >= 0):
            raise ConfigError("durations must be >= 0")
        self._normalise_staging("input_staging")
        self._normalise_staging("output_staging")

    def _normalise_staging(self, key: str) -> None:
        directives: List[StagingDirective] = []
        for item in self[key]:
            if isinstance(item, StagingDirective):
                directives.append(item)
            elif isinstance(item, dict):
                directives.append(StagingDirective(item))
            else:
                raise ConfigError(
                    f"{key} entries must be StagingDirective or dict")
        self._data[key] = directives


class ServiceDescription(TaskDescription):
    """A task that runs a long-lived service exposing an API (§III).

    Extends :class:`TaskDescription` with the service lifecycle knobs: which
    model/backend to instantiate, how long startup may take, how often to
    heartbeat, and how it batches and bounds requests.  Where it runs is
    the manager's call: ``start_services`` on a pilot or ``start_remote``
    on a platform.
    """

    _schema = dict(TaskDescription._schema)
    _schema.update({
        "model": str,               # model name served (e.g. "llama-8b")
        "backend": str,             # serving backend (e.g. "ollama")
        "startup_timeout_s": (int, float),
        "heartbeat_interval_s": (int, float),
        "max_concurrency": int,     # concurrent inferences per instance
        "max_batch_size": int,      # coalesced requests per dispatch
                                    # (0 = serving-host default)
        "max_queue_depth": int,     # admission bound (0 = unbounded)
        "endpoint_name": str,       # registry name (auto if empty)
    })
    _defaults = dict(TaskDescription._defaults)
    _defaults.update({
        "model": "noop",
        "backend": "ollama",
        "startup_timeout_s": 600.0,
        "heartbeat_interval_s": 10.0,
        "max_concurrency": 1,      # paper: services are single-threaded
        "max_batch_size": 0,       # paper: one request at a time
        "max_queue_depth": 0,      # paper: unbounded inbox
        "endpoint_name": "",
        # services usually hold one GPU (Exp 1: "each using one GPU")
        "gpus_per_rank": 1,
        "priority": 100,           # services schedule before compute tasks
    })

    def __init__(self, from_dict=None, **kwargs) -> None:
        super().__init__(from_dict, **kwargs)
        if not self.startup_timeout_s > 0:
            raise ConfigError("startup_timeout_s must be positive")
        if self.max_concurrency < 1:
            raise ConfigError("max_concurrency must be >= 1")
        if self.max_batch_size < 0:
            raise ConfigError("max_batch_size must be >= 0 (0 = default)")
        if self.max_queue_depth < 0:
            raise ConfigError("max_queue_depth must be >= 0 (0 = unbounded)")
        if not self.heartbeat_interval_s > 0:
            raise ConfigError("heartbeat_interval_s must be positive")
