"""Descriptions: the user-facing specifications of pilots, tasks, services.

Mirrors RADICAL-Pilot's ``PilotDescription`` / ``TaskDescription`` and the
paper's ``ServiceDescription`` extension (§III: "RADICAL-Pilot's execution
model now enables users to submit ServiceDescription and TaskDescription via
a unified API").  Descriptions are schema-validated slotted attribute
records (:class:`repro.utils.config.Config`): each class declares
``__slots__`` from its ``_schema``, so a description has no per-instance
``__dict__``, and every field is stored at build, so a read is a plain
slot read.  A description compares and hashes by identity, as a task does.
Its four container fields (``fn_kwargs``, ``input_staging``,
``output_staging``, ``tags``) are built on their first read; the runtime
tests them as stored (``d._tags``), so a task that sets none of them never
holds one.  A class's checks are its ``_validate(self, given)`` hook, run
once per construction after every field is stored (*given* holds the
keywords as checked, ``from_dict`` merged under them); the task's also
turns given staging dicts into :class:`StagingDirective` records.
Entities are created from them by the managers.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..utils.config import Config, ConfigError

__all__ = [
    "PilotDescription",
    "TaskDescription",
    "ServiceDescription",
    "StagingDirective",
]


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
    __slots__ = tuple(_schema)
    _defaults = {"action": "transfer", "size_bytes": 0, "source": "",
                 "target": ""}

    ACTIONS = ("transfer", "copy", "link")

    def _validate(self, given: Dict[str, Any]) -> None:
        if self.action not in self.ACTIONS:
            raise ConfigError(
                f"staging action {self.action!r} not in {self.ACTIONS}")
        # each check written so that NaN fails it
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
    __slots__ = tuple(_schema)
    _defaults = {"nodes": 0, "cores": 0, "gpus": 0, "runtime_s": 3600.0}

    def _validate(self, given: Dict[str, Any]) -> None:
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
    __slots__ = tuple(_schema)
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

    def _validate(self, given: Dict[str, Any]) -> None:
        if self.function is not None and not callable(self.function):
            raise ConfigError("TaskDescription.function must be callable")
        if self.ranks < 1:
            raise ConfigError("ranks must be >= 1")
        if self.cores_per_rank < 1:
            raise ConfigError("cores_per_rank must be >= 1")
        if self.gpus_per_rank < 0:
            raise ConfigError("gpus_per_rank must be >= 0")
        if not (self.duration_s >= 0 and self.pre_exec_s >= 0
                and self.duration_jitter_s >= 0):
            raise ConfigError("durations must be >= 0")
        if not self.mem_per_rank_gb >= 0:
            raise ConfigError("mem_per_rank_gb must be >= 0")
        for key in ("input_staging", "output_staging"):
            # the default is not built yet; a given list is replaced by its
            # own (None fails as it always did)
            if key in given:
                directives: List[StagingDirective] = []
                for item in given[key]:
                    if isinstance(item, StagingDirective):
                        directives.append(item)
                    elif isinstance(item, dict):
                        directives.append(StagingDirective(item))
                    else:
                        raise ConfigError(
                            f"{key} entries must be StagingDirective or dict")
                setattr(self, key, directives)


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
    # the task's fields are slotted by TaskDescription; these are the added
    __slots__ = tuple(_schema)[len(TaskDescription._schema):]
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

    def _validate(self, given: Dict[str, Any]) -> None:
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
