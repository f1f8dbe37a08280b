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
holds one.  A constructor checks only the fields it is given, against
their types and then their ``_rules`` (the task's turn given staging dicts
into :class:`StagingDirective` records); ``None`` is a value only of
``function`` and ``PilotDescription.resource``, and a pilot's size and
``resource`` are checked by its ``_validate``.  Entities are created from
descriptions by the managers.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List

from ..utils.config import Config, ConfigError, Rule

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

    _rules = {
        "action": Rule("in", ACTIONS, "staging action {!r} not in "
                       + str(ACTIONS)),
        "size_bytes": Rule(">=", 0, "size_bytes must be >= 0"),
    }


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

    _rules = {"runtime_s": Rule(">", 0, "runtime_s must be positive")}

    def _validate(self) -> None:
        if not self.resource:
            raise ConfigError("PilotDescription.resource is required")
        if self.nodes <= 0 and self.cores <= 0 and self.gpus <= 0:
            raise ConfigError(
                "PilotDescription needs nodes, cores or gpus > 0")

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


def _callable(function: Any) -> Any:
    if function is not None and not callable(function):
        raise ConfigError("TaskDescription.function must be callable")
    return function


def _directives(key: str, entries: List[Any]) -> List[StagingDirective]:
    """A given staging list as a new list of :class:`StagingDirective`
    records: a dict entry becomes one, a record is kept."""
    directives: List[StagingDirective] = []
    for item in entries:
        if not isinstance(item, (StagingDirective, dict)):
            raise ConfigError(
                f"{key} entries must be StagingDirective or dict")
        directives.append(item if isinstance(item, StagingDirective)
                          else StagingDirective(item))
    return directives


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

    _rules = {
        "function": _callable,
        "ranks": Rule(">=", 1, "ranks must be >= 1"),
        "cores_per_rank": Rule(">=", 1, "cores_per_rank must be >= 1"),
        "gpus_per_rank": Rule(">=", 0, "gpus_per_rank must be >= 0"),
        "mem_per_rank_gb": Rule(">=", 0, "mem_per_rank_gb must be >= 0"),
        **dict.fromkeys(("duration_s", "duration_jitter_s", "pre_exec_s"),
                        Rule(">=", 0, "durations must be >= 0")),
        "input_staging": partial(_directives, "input_staging"),
        "output_staging": partial(_directives, "output_staging"),
    }


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

    _rules = dict(TaskDescription._rules)
    _rules.update({
        "startup_timeout_s": Rule(">", 0,
                                  "startup_timeout_s must be positive"),
        "heartbeat_interval_s": Rule(">", 0,
                                     "heartbeat_interval_s must be positive"),
        "max_concurrency": Rule(">=", 1, "max_concurrency must be >= 1"),
        "max_batch_size": Rule(">=", 0,
                               "max_batch_size must be >= 0 (0 = default)"),
        "max_queue_depth": Rule(
            ">=", 0, "max_queue_depth must be >= 0 (0 = unbounded)"),
    })
