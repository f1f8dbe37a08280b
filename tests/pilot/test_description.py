"""Tests for pilot/task/service descriptions and staging directives."""

import copy
import gc
import importlib.util
import inspect
import pickle
import pickletools
import tracemalloc
import types
from pathlib import Path

import pytest

from repro.pilot import (
    PilotDescription,
    ServiceDescription,
    StagingDirective,
    TaskDescription,
)
from repro import DataConfig, ResilienceConfig, RetryPolicy
from repro.utils.config import UNBUILT, Config, ConfigError, Rule


NAN = float("nan")
ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("build", [
    lambda: TaskDescription(duration_s=NAN),
    lambda: TaskDescription(pre_exec_s=NAN),
    lambda: TaskDescription(duration_jitter_s=NAN),
    lambda: TaskDescription(duration_jitter_s=-5.0),
    lambda: TaskDescription(mem_per_rank_gb=NAN),
    lambda: TaskDescription(mem_per_rank_gb=-1.0),
    lambda: PilotDescription(resource="delta", nodes=1, runtime_s=NAN),
    lambda: StagingDirective(size_bytes=NAN),
    lambda: ServiceDescription(startup_timeout_s=NAN),
    lambda: ServiceDescription(heartbeat_interval_s=NAN),
    lambda: ResilienceConfig(heartbeat_interval_s=NAN),
    lambda: RetryPolicy(backoff_base_s=NAN),
    lambda: RetryPolicy(rebind_wait_s=NAN),
    lambda: RetryPolicy(rebind_wait_s=-1.0),
    lambda: DataConfig(cache_capacity_bytes=NAN),
], ids=["task-duration", "task-pre-exec", "task-jitter-nan",
        "task-jitter-negative", "task-mem-nan", "task-mem-negative",
        "pilot-runtime", "staging-size",
        "service-startup-timeout", "service-heartbeat",
        "resilience-heartbeat", "retry-backoff", "retry-rebind-nan",
        "retry-rebind-negative", "data-cache-capacity"])
def test_nan_fails_every_non_negativity_check(build):
    """Each check is written ``not x >= 0`` / ``not x > 0``: a NaN
    duration once finished a task in zero simulated time, and a NaN
    interval surfaced only later, from a timer inside ``session.run()``;
    a negative memory request once failed its task in the agent, and a
    negative jitter was silently ignored."""
    with pytest.raises((ConfigError, ValueError)):
        build()


class TestPilotDescription:
    def test_minimal(self):
        d = PilotDescription(resource="delta", nodes=4)
        assert d.resource == "delta"
        assert d.runtime_s == 3600.0

    def test_resource_required(self):
        # the one field without a default is stored as None, and refused
        with pytest.raises(ConfigError,
                           match="PilotDescription.resource is required"):
            PilotDescription(nodes=1)

    def test_some_size_required(self):
        with pytest.raises(ConfigError, match="nodes, cores or gpus"):
            PilotDescription(resource="delta")

    def test_required_nodes_from_cores(self):
        d = PilotDescription(resource="delta", cores=256)
        assert d.required_nodes(cores_per_node=64, gpus_per_node=4) == 4

    def test_required_nodes_from_gpus(self):
        d = PilotDescription(resource="delta", gpus=16)
        assert d.required_nodes(cores_per_node=64, gpus_per_node=4) == 4

    def test_required_nodes_takes_max(self):
        d = PilotDescription(resource="delta", cores=64, gpus=16)
        assert d.required_nodes(cores_per_node=64, gpus_per_node=4) == 4

    def test_required_nodes_rounds_up(self):
        d = PilotDescription(resource="x", cores=65)
        assert d.required_nodes(cores_per_node=64, gpus_per_node=0) == 2

    def test_gpus_on_gpuless_platform_rejected(self):
        d = PilotDescription(resource="x", gpus=1)
        with pytest.raises(ConfigError, match="GPU-less"):
            d.required_nodes(cores_per_node=64, gpus_per_node=0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            PilotDescription(resource="delta", nodes=1, walltime=60)
        with pytest.raises(ConfigError, match="unknown key"):
            PilotDescription(resource="delta", nodes=1, queue="debug")


class TestTaskDescription:
    def test_defaults(self):
        d = TaskDescription(executable="/bin/sim")
        assert d.ranks == 1
        assert d.cores_per_rank == 1
        assert d.gpus_per_rank == 0
        assert d.priority == 0

    def test_function_payload(self):
        d = TaskDescription(function=sum, fn_args=([1, 2, 3],))
        assert d.function([1, 2]) == 3

    def test_non_callable_function_rejected(self):
        with pytest.raises(ConfigError, match="callable"):
            TaskDescription(function="not-callable")

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ConfigError):
            TaskDescription(ranks=0)
        with pytest.raises(ConfigError):
            TaskDescription(cores_per_rank=0)
        with pytest.raises(ConfigError):
            TaskDescription(gpus_per_rank=-1)
        with pytest.raises(ConfigError):
            TaskDescription(duration_s=-1.0)

    def test_staging_dicts_normalised(self):
        d = TaskDescription(
            executable="x",
            input_staging=[{"source": "a", "target": "b",
                            "size_bytes": 100}])
        assert isinstance(d.input_staging[0], StagingDirective)
        assert d.input_staging[0].size_bytes == 100

    def test_bad_staging_entry_rejected(self):
        with pytest.raises(ConfigError):
            TaskDescription(input_staging=["not-a-directive"])

    def test_as_dict_roundtrip(self):
        d = TaskDescription(executable="x", ranks=2, cores_per_rank=4)
        d2 = TaskDescription(d.as_dict())
        assert d2.ranks == 2 and d2.cores_per_rank == 4


class TestServiceDescription:
    def test_service_defaults_match_paper(self):
        d = ServiceDescription(model="llama-8b")
        assert d.backend == "ollama"
        assert d.max_concurrency == 1     # single-threaded services (§IV)
        assert d.gpus_per_rank == 1       # one GPU per service (Exp 1)
        assert d.priority > 0             # services before tasks

    def test_is_a_task_description(self):
        assert isinstance(ServiceDescription(), TaskDescription)

    def test_placement_is_not_a_description_field(self):
        # where a service runs is start_services (a pilot) or
        # start_remote (a platform), never the description
        with pytest.raises(ConfigError, match="unknown key"):
            ServiceDescription(remote_platform="r3")

    def test_validation(self):
        with pytest.raises(ConfigError):
            ServiceDescription(startup_timeout_s=0)
        with pytest.raises(ConfigError):
            ServiceDescription(max_concurrency=0)
        with pytest.raises(ConfigError):
            ServiceDescription(heartbeat_interval_s=0)


class TestStagingDirective:
    def test_actions_validated(self):
        with pytest.raises(ConfigError, match="action"):
            StagingDirective(action="teleport")

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            StagingDirective(size_bytes=-5)

    def test_link_default_size_zero(self):
        d = StagingDirective(action="link", source="a", target="b")
        assert d.size_bytes == 0


class TestNoneIsAValueOnlyWhereItIsTheDefault:
    """``None`` is refused, at build and on write, by every field whose
    default is not None; ``function`` and ``PilotDescription.resource``
    (whose hook refuses it) take it."""

    @staticmethod
    def refused(cls, key, **kwargs):
        with pytest.raises(ConfigError,
                           match=rf"^{cls.__name__}\.{key}: expected .*, "
                                 r"got NoneType \(None\)$"):
            cls(**dict(kwargs, **{key: None}))
        record = cls(**kwargs)
        with pytest.raises(ConfigError, match="got NoneType"):
            setattr(record, key, None)

    @pytest.mark.parametrize("key", [
        "ranks", "duration_s", "priority", "tags", "name", "executable",
        "input_staging", "fn_args", "pilot"])
    def test_task_description(self, key):
        self.refused(TaskDescription, key)
        d = TaskDescription(function=None)
        assert d.function is None
        d.function = None

    @pytest.mark.parametrize("key", ["max_concurrency", "model",
                                     "startup_timeout_s", "priority"])
    def test_service_description(self, key):
        self.refused(ServiceDescription, key)

    @pytest.mark.parametrize("key", ["nodes", "cores", "runtime_s"])
    def test_pilot_description(self, key):
        self.refused(PilotDescription, key, resource="frontier", cores=4)
        d = PilotDescription(resource="frontier", nodes=1)
        d.resource = None  # the one field without a default
        with pytest.raises(ConfigError, match="resource is required"):
            PilotDescription(resource=None, nodes=1)

    @pytest.mark.parametrize("key", ["source", "action", "size_bytes"])
    def test_staging_directive(self, key):
        self.refused(StagingDirective, key)


class TestErrorPrecedence:
    """Unknown keys first, then types, then values, each in schema order,
    whatever the order of the keywords."""

    def test_unknown_before_type_before_value(self):
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            TaskDescription(ranks=0, cores_per_rank="2", bogus=1)
        with pytest.raises(ConfigError, match="cores_per_rank: expected"):
            TaskDescription(ranks=0, cores_per_rank="2")
        with pytest.raises(ConfigError, match="^ranks must be >= 1$"):
            TaskDescription(duration_s=-1.0, ranks=0)

    def test_schema_order_within_a_kind(self):
        with pytest.raises(ConfigError, match="ranks: expected"):
            TaskDescription(priority="high", ranks="2")
        with pytest.raises(ConfigError, match="mem_per_rank_gb must"):
            TaskDescription(pre_exec_s=-1.0, mem_per_rank_gb=-1.0)
        with pytest.raises(ConfigError, match="heartbeat_interval_s must"):
            ServiceDescription(max_concurrency=0, heartbeat_interval_s=0)

    def test_from_dict_is_merged_before_any_check(self):
        with pytest.raises(ConfigError, match="unknown key 'walltime'"):
            PilotDescription({"walltime": 60}, nodes="1", queue="debug")
        with pytest.raises(ConfigError, match="runtime_s must be positive"):
            PilotDescription({"runtime_s": -1.0}, nodes=1)
        assert PilotDescription({"nodes": 1}, resource="x", nodes=2).nodes == 2

    def test_a_staging_entry_is_checked_with_the_values(self):
        with pytest.raises(ConfigError, match="^ranks must be >= 1$"):
            TaskDescription(input_staging=["bad"], ranks=0)
        with pytest.raises(ConfigError, match="staging action 'teleport'"):
            TaskDescription(input_staging=[{"action": "teleport"}])


#: one valid instance of every description class, with non-default values
DESCRIPTIONS = {
    "task": lambda: TaskDescription(
        executable="x", ranks=2, cores_per_rank=4, mem_per_rank_gb=2,
        tags={"colocate": "g"}, fn_kwargs={"verbose": True},
        input_staging=[{"source": "a", "target": "b", "size_bytes": 8}]),
    "service": lambda: ServiceDescription(
        model="llama-8b", max_batch_size=4, tags={"affinity": [1, 2]}),
    "staging": lambda: StagingDirective(
        source="a", target="b", action="copy", size_bytes=1.5e6),
    "pilot": lambda: PilotDescription(resource="delta", nodes=2,
                                      runtime_s=600),
}


def fields(record):
    """A record's fields as plain data, nested records included: records
    themselves compare by identity."""
    if isinstance(record, Config):
        return type(record), fields(record.as_dict())
    if isinstance(record, list):
        return [fields(value) for value in record]
    if isinstance(record, dict):
        return {key: fields(value) for key, value in record.items()}
    return record


#: the task fields built on their first read
BUILT_ON_READ = {"fn_kwargs", "input_staging", "output_staging", "tags"}

#: traced heap bytes per default TaskDescription: about 178 on CPython
#: 3.10-3.13 (418 while its four empty containers were built per
#: instance); the dict-backed form cost 939 / 770 / 762 / 538 on 3.10 /
#: 3.11 / 3.12 / 3.13
DESCRIPTION_BYTES_CEILING = 500


@pytest.fixture(params=sorted(DESCRIPTIONS))
def desc(request):
    return DESCRIPTIONS[request.param]()


class TestPlainAttributeStorage:
    """Declared fields live where ordinary attribute lookup finds them;
    the views and the validation are those of the dict-backed original."""

    def test_no_class_has_a_getattr_hook_or_a_mapping_face(self, desc):
        # every field is stored at build, so a read is a plain slot read
        for cls in type(desc).__mro__[:-1]:
            for name in ("__getattr__", "__getitem__", "__setitem__",
                         "__contains__", "get", "__eq__"):
                assert name not in cls.__dict__, (cls, name)
        assert type(desc).__hash__ is object.__hash__
        with pytest.raises(AttributeError) as caught:
            desc.bogus
        assert caught.value.name == "bogus"

    def test_every_view_agrees(self, desc):
        data = desc.as_dict()
        assert set(data) == set(desc._schema)
        for key, value in data.items():
            assert fields(getattr(desc, key)) == fields(value)
            assert f"{key}={value!r}" in repr(desc)
        assert "bogus" not in data
        assert fields(desc.copy()) == fields(desc) and desc.copy() is not desc
        clone = copy.deepcopy(desc)
        assert type(clone) is type(desc) and clone is not desc
        assert fields(clone) == fields(desc)
        assert repr(clone) == repr(desc)

    def test_views_are_copies_not_aliases(self):
        d = DESCRIPTIONS["task"]()
        d.as_dict()["tags"]["colocate"] = "other"
        d.copy().input_staging.clear()
        d.copy().fn_kwargs["verbose"] = False
        assert d.tags == {"colocate": "g"} and len(d.input_staging) == 1
        assert d.fn_kwargs == {"verbose": True}
        assert TaskDescription().tags is not TaskDescription().tags

    def test_unknown_key_rejected_on_every_write_path(self, desc):
        with pytest.raises(ConfigError, match="unknown key"):
            type(desc)(from_dict=dict(desc.as_dict(), bogus=1))
        with pytest.raises(ConfigError, match="unknown key"):
            desc.bogus = 1
        with pytest.raises(ConfigError, match="unknown key"):
            desc._private = 1  # private names are not fields either
        assert "bogus" not in desc.as_dict()
        assert "_private" not in desc.as_dict()
        with pytest.raises(AttributeError):
            desc.bogus

    def test_type_checked_on_every_write_path(self):
        d = TaskDescription()
        with pytest.raises(ConfigError, match="expected"):
            TaskDescription(ranks="2")
        with pytest.raises(ConfigError, match="expected"):
            d.ranks = "2"
        assert d.ranks == 1

    def test_int_coerced_to_float_on_every_write_path(self):
        class Rate(Config):
            _schema = {"rate": float, "label": str}
            _defaults = {"rate": 0.5}

        r = Rate(rate=2)
        assert r.rate == 2.0 and type(r.rate) is float
        r.rate = 4
        assert type(r.rate) is float and r.rate == 4.0
        # a field without a default is stored as None
        assert r.label is None
        assert r.as_dict() == {"rate": 4.0, "label": None}
        r.label = "x"
        assert r.as_dict() == {"rate": 4.0, "label": "x"}
        r.label = None  # a field without a default takes None
        assert r.label is None
        with pytest.raises(ConfigError, match="got NoneType"):
            r.rate = None  # one with a default does not

    def test_no_instance_has_a_dict(self, desc):
        # as tests/comm/test_message.py pins for Message
        assert not hasattr(desc, "__dict__")

    def test_every_field_is_a_slot(self, desc):
        # a task's four container fields are properties over their slots,
        # which stay readable as ``_<field>``; every other field is a slot
        cls = type(desc)
        containers = (BUILT_ON_READ if isinstance(desc, TaskDescription)
                      else set())
        assert set(cls._built_on_read) == containers
        for key in desc._schema:
            if key in containers:
                assert isinstance(getattr(cls, key), property), key
                assert isinstance(getattr(cls, "_" + key),
                                  types.MemberDescriptorType), key
            else:
                assert isinstance(getattr(cls, key),
                                  types.MemberDescriptorType), key

    def test_a_default_task_description_stays_under_its_byte_ceiling(self):
        n = 10_000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [TaskDescription(executable="/bin/sim", cores_per_rank=1,
                                    duration_s=1.0) for _ in range(n)]
            per = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
        finally:
            tracemalloc.stop()
        assert per < DESCRIPTION_BYTES_CEILING, per


#: call opcodes per description, read as 5.0: the call itself, the switch
#: to the twin and the type of each of the three keywords; 11.0 while a
#: metaclass ``__call__`` checked each keyword and ran a build function and
#: a ``_validate`` hook, 30.0 while the constructor wrote each default
#: through its slot's setter
DESCRIPTION_CALLS = 5.5
#: call opcodes per ``TaskDescription`` with two dict staging entries
#: (``hybrid_campaign``'s ``sim`` shape), read as 32.0: 41.0 while the
#: staging dicts were turned into records by the ``_validate`` hook
STAGED_DESCRIPTION_CALLS = 32.5


@pytest.fixture(scope="module")
def hotpath():
    spec = importlib.util.spec_from_file_location(
        "profile_hotpath", ROOT / "benchmarks" / "profile_hotpath.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_task_description_makes_at_most_N_calls(hotpath):
    per = hotpath.description_calls(1_000)
    assert per <= DESCRIPTION_CALLS, per


def test_a_staged_task_description_makes_at_most_N_calls(hotpath):
    per = hotpath.staged_description_calls(1_000)
    assert per <= STAGED_DESCRIPTION_CALLS, per


class TestBuiltOnATwin:
    """A record is built on its class's twin, an unchecked subclass made
    once per class; the twin never escapes the constructor."""

    CLASSES = (TaskDescription, ServiceDescription, StagingDirective,
               PilotDescription)

    @staticmethod
    def twins_alive(classes):
        twins = {cls._twin for cls in classes}
        gc.collect()
        return [obj for obj in gc.get_objects() if type(obj) in twins]

    def test_every_path_gives_the_class_itself(self, desc):
        cls = type(desc)
        assert cls in self.CLASSES
        for made in (cls(from_dict=desc.as_dict()), desc.copy(),
                     copy.copy(desc), copy.deepcopy(desc),
                     pickle.loads(pickle.dumps(desc))):
            assert type(made) is cls and fields(made) == fields(desc)

    def test_a_pickled_description_names_its_class(self, desc):
        cls = type(desc)
        names = [arg for op, arg, _ in pickletools.genops(pickle.dumps(desc))
                 if isinstance(arg, str)]
        assert cls.__qualname__ in names
        assert not any("twin" in name for name in names)
        # a twin that escaped could not be pickled as the class
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(object.__new__(cls._twin))

    @pytest.mark.parametrize("build", [
        lambda: TaskDescription(ranks=0),
        lambda: TaskDescription(executable="x", input_staging=["bad"]),
        lambda: ServiceDescription(max_concurrency=0),
        lambda: StagingDirective(action="teleport"),
        lambda: PilotDescription(nodes=1),
        lambda: PilotDescription(from_dict={"resource": "delta"}, nodes=1,
                                 runtime_s=-1.0),
    ])
    def test_a_construction_that_raises_leaves_no_twin(self, build):
        with pytest.raises(ConfigError):
            build()
        assert self.twins_alive(self.CLASSES) == []
        # the probe sees one that is held
        held = object.__new__(TaskDescription._twin)
        assert self.twins_alive(self.CLASSES) == [held]

    def test_a_class_made_at_runtime_gets_its_own_twin(self):
        class Rate(Config):
            __slots__ = ("rate", "label")
            _schema = {"rate": float, "label": str}
            _defaults = {"rate": 0.5}

        Fast = type("Fast", (Rate,), {"__slots__": (),
                                      "_defaults": {"rate": 2.0}})
        assert Rate._twin.__bases__ == (Rate,)
        assert Fast._twin.__bases__ == (Fast,)
        r, f = Rate(rate=1), Fast(label="x")
        assert type(r) is Rate and r.rate == 1.0 and type(r.rate) is float
        assert type(f) is Fast and f.rate == 2.0 and f.label == "x"
        assert r.label is None
        assert r.as_dict() == {"rate": 1.0, "label": None}

    def test_a_record_class_cannot_define_init(self):
        # the constructor would never call it: its checks would not run
        with pytest.raises(TypeError, match="_validate"):
            type("Checked", (Config,), {"__init__": lambda self: None})

    def test_the_signature_lists_every_field(self):
        # one generated __init__ per class, every field a keyword of it
        for cls in self.CLASSES:
            params = inspect.signature(cls).parameters
            assert list(params) == ["from_dict", *cls._schema, "unknown"]
            kinds = {params[key].kind for key in cls._schema}
            assert kinds == {inspect.Parameter.KEYWORD_ONLY}
            assert params["unknown"].kind is inspect.Parameter.VAR_KEYWORD
            init = cls.__dict__["__init__"]
            assert init.__code__.co_filename == \
                f"<{cls.__qualname__} constructor>"
        # one private "not given" default: only a given field is checked
        params = inspect.signature(TaskDescription).parameters
        defaults = {params[key].default for key in TaskDescription._schema}
        assert len(defaults) == 1 and "not given" in repr(*defaults)

    def test_only_pilot_description_keeps_a_class_hook(self):
        # every single-field check is a rule of its field
        for cls in self.CLASSES:
            hooks = [klass for klass in cls.__mro__
                     if "_validate" in klass.__dict__]
            assert hooks == ([PilotDescription]
                             if cls is PilotDescription else [])

    def test_a_rule_runs_on_given_values_and_once_on_the_default(self):
        seen = []

        def note(value):
            seen.append(value)
            return value

        class Noted(Config):
            __slots__ = ("size", "label")
            _schema = {"size": int, "label": list}
            _defaults = {"size": 0, "label": []}
            _rules = {"size": Rule(">=", 0, "size {!r} < 0"), "label": note}

        assert seen == [[]]  # the default, when the class was made
        Noted()
        Noted(size=3)
        assert seen == [[]]
        Noted(label=["x"])
        assert seen == [[], ["x"]]
        with pytest.raises(ConfigError, match=r"^size -1 < 0$"):
            Noted(size=-1)

    def test_a_bad_default_fails_when_the_class_is_made(self):
        with pytest.raises(ConfigError, match="size -1 < 0"):
            type("Bad", (Config,), {
                "__slots__": ("size",), "_schema": {"size": int},
                "_defaults": {"size": -1},
                "_rules": {"size": Rule(">=", 0, "size {!r} < 0")}})
        with pytest.raises(ConfigError, match="expected"):
            type("Mistyped", (Config,), {
                "__slots__": ("size",), "_schema": {"size": int},
                "_defaults": {"size": "0"}})


class TestContainersBuiltOnRead:
    """A task's four container fields hold :data:`UNBUILT` until a user
    reads them; from the first read on they are ordinary fields."""

    @staticmethod
    def unbuilt(desc):
        return {key for key in BUILT_ON_READ
                if getattr(desc, "_" + key) is UNBUILT}

    @pytest.mark.parametrize("cls", [TaskDescription, ServiceDescription])
    def test_a_default_builds_none_and_reads_as_empty(self, cls):
        d = cls()
        assert self.unbuilt(d) == BUILT_ON_READ
        # the copying and comparing reads see empty containers, build none
        assert d.as_dict()["tags"] == {} and "tags=" in repr(d)
        assert fields(d) == fields(cls())
        for clone in (copy.copy(d), pickle.loads(pickle.dumps(d))):
            assert fields(clone) == fields(d)
        assert self.unbuilt(d) == BUILT_ON_READ

    @pytest.mark.parametrize("cls", [TaskDescription, ServiceDescription])
    def test_the_first_read_builds_one_container_for_good(self, cls):
        d = cls()
        for key in BUILT_ON_READ:
            assert getattr(d, key) is getattr(d, key)
        assert self.unbuilt(d) == set()
        d.tags["colocate"] = "g"
        d.fn_kwargs["k"] = 1
        d.input_staging.append(StagingDirective(source="s"))
        assert d.as_dict()["tags"] == {"colocate": "g"}
        assert fields(d) != fields(cls())
        assert "colocate" in repr(d)
        for clone in (copy.copy(d), copy.deepcopy(d), d.copy(),
                      pickle.loads(pickle.dumps(d))):
            assert fields(clone) == fields(d)
            assert clone.tags == {"colocate": "g"}
            assert clone.fn_kwargs == {"k": 1}
            assert clone.input_staging[0].source == "s"
        assert cls().tags == {}  # nothing is shared with a fresh one

    def test_a_write_replaces_the_container_and_none_is_refused(self):
        d = TaskDescription()
        tags = {"affinity": "a"}
        d.tags = tags
        assert d.tags is tags
        with pytest.raises(ConfigError, match="expected"):
            d.fn_kwargs = None  # its default is a container, not None
        assert d._fn_kwargs is UNBUILT
        with pytest.raises(ConfigError, match="expected"):
            d.tags = ()  # the unbuilt marker is no value a field takes
        assert d.tags is tags

    def test_the_runtime_builds_no_container_of_a_default(self):
        from repro import ObservabilityConfig
        from repro.pilot import PilotManager, Session, TaskManager, TaskState

        with Session(seed=3, observability=ObservabilityConfig()) as session:
            pmgr, tmgr = PilotManager(session), TaskManager(session)
            pilots = pmgr.submit_pilots([
                PilotDescription(resource="delta", nodes=1, runtime_s=1e6),
                PilotDescription(resource="delta", nodes=1, runtime_s=1e6)])
            tmgr.add_pilots(pilots)  # two: data-affinity placement looks
            descs = [TaskDescription(executable="x", duration_s=1.0,
                                     cores_per_rank=1 + i % 4)
                     for i in range(40)]
            descs.append(TaskDescription(function=lambda: 7, duration_s=1.0))
            tasks = tmgr.submit_tasks(descs, on_complete=lambda t: None)
            session.run(until=tmgr.wait_tasks(tasks))
            assert all(t.state == TaskState.DONE for t in tasks)
            assert tasks[-1].result == 7
            assert len(session.observability.tracer.spans) > 0
            for d in descs:
                assert self.unbuilt(d) == BUILT_ON_READ
