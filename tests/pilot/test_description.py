"""Tests for pilot/task/service descriptions and staging directives."""

import copy
import gc
import pickle
import tracemalloc
import types

import pytest

from repro.pilot import (
    PilotDescription,
    ServiceDescription,
    StagingDirective,
    TaskDescription,
)
from repro import DataConfig, ResilienceConfig, RetryPolicy
from repro.utils.config import UNBUILT, Config, ConfigError


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: TaskDescription(duration_s=NAN),
    lambda: TaskDescription(pre_exec_s=NAN),
    lambda: PilotDescription(resource="delta", nodes=1, runtime_s=NAN),
    lambda: StagingDirective(size_bytes=NAN),
    lambda: ServiceDescription(startup_timeout_s=NAN),
    lambda: ServiceDescription(heartbeat_interval_s=NAN),
    lambda: ResilienceConfig(heartbeat_interval_s=NAN),
    lambda: RetryPolicy(backoff_base_s=NAN),
    lambda: RetryPolicy(rebind_wait_s=NAN),
    lambda: RetryPolicy(rebind_wait_s=-1.0),
    lambda: DataConfig(cache_capacity_bytes=NAN),
], ids=["task-duration", "task-pre-exec", "pilot-runtime", "staging-size",
        "service-startup-timeout", "service-heartbeat",
        "resilience-heartbeat", "retry-backoff", "retry-rebind-nan",
        "retry-rebind-negative", "data-cache-capacity"])
def test_nan_fails_every_non_negativity_check(build):
    """Each check is written ``not x >= 0`` / ``not x > 0``: a NaN
    duration once finished a task in zero simulated time, and a NaN
    interval surfaced only later, from a timer inside ``session.run()``."""
    with pytest.raises((ConfigError, ValueError)):
        build()


class TestPilotDescription:
    def test_minimal(self):
        d = PilotDescription(resource="delta", nodes=4)
        assert d.resource == "delta"
        assert d.runtime_s == 3600.0

    def test_resource_required(self):
        with pytest.raises(ConfigError, match="resource"):
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
    the mapping views and the validation are those of the dict-backed
    original."""

    def test_set_fields_never_enter_getattr(self, desc, monkeypatch):
        def trap(self, key):
            raise AssertionError(f"__getattr__({key!r}) reached")
        monkeypatch.setattr(Config, "__getattr__", trap)
        for key in desc._schema:
            assert getattr(desc, key) == desc[key]

    def test_every_view_agrees(self, desc):
        data = desc.as_dict()
        assert set(data) == set(desc._schema)
        for key, value in data.items():
            assert getattr(desc, key) == desc[key] == desc.get(key) == value
            assert key in desc
            assert f"{key}={value!r}" in repr(desc)
        assert "bogus" not in desc and desc.get("bogus", 7) == 7
        assert desc == data and desc == desc.copy()
        clone = copy.deepcopy(desc)
        assert type(clone) is type(desc) and clone == desc
        assert clone.as_dict() == data
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
            desc["bogus"] = 1
        with pytest.raises(ConfigError, match="unknown key"):
            desc._private = 1  # private names are not fields either
        assert "bogus" not in desc and "_private" not in desc.as_dict()
        with pytest.raises(AttributeError):
            desc.bogus

    def test_type_checked_on_every_write_path(self):
        d = TaskDescription()
        with pytest.raises(ConfigError, match="expected"):
            TaskDescription(ranks="2")
        with pytest.raises(ConfigError, match="expected"):
            d.ranks = "2"
        with pytest.raises(ConfigError, match="expected"):
            d["ranks"] = 2.0
        assert d.ranks == 1

    def test_int_coerced_to_float_on_every_write_path(self):
        class Rate(Config):
            _schema = {"rate": float, "label": str}
            _defaults = {"rate": 0.5}

        r = Rate(rate=2)
        assert r.rate == 2.0 and type(r.rate) is float
        r.rate = 3
        assert type(r.rate) is float
        r["rate"] = 4
        assert type(r["rate"]) is float and r.rate == 4.0
        # declared but never set: reads as None, is not a member
        assert r.label is None and "label" not in r
        assert r.as_dict() == {"rate": 4.0}
        r.label = "x"
        assert r.label == "x" and r == {"rate": 4.0, "label": "x"}
        r.label = None  # None is always accepted
        assert r.label is None and "label" in r

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
        assert d == cls() and "input_staging" in d
        assert copy.copy(d) == d and pickle.loads(pickle.dumps(d)) == d
        assert self.unbuilt(d) == BUILT_ON_READ

    @pytest.mark.parametrize("cls", [TaskDescription, ServiceDescription])
    def test_the_first_read_builds_one_container_for_good(self, cls):
        d = cls()
        assert d.tags is d.tags is d["tags"] is d.get("tags")
        assert d.fn_kwargs is d["fn_kwargs"]
        assert d["input_staging"] is d.input_staging
        assert d.get("output_staging") is d.output_staging
        assert self.unbuilt(d) == set()
        d.tags["colocate"] = "g"
        d.fn_kwargs["k"] = 1
        d.input_staging.append(StagingDirective(source="s"))
        assert d.as_dict()["tags"] == {"colocate": "g"}
        assert d == d.as_dict() and d != cls()
        assert "colocate" in repr(d)
        for clone in (copy.copy(d), copy.deepcopy(d), d.copy(),
                      pickle.loads(pickle.dumps(d))):
            assert clone == d and clone.tags == {"colocate": "g"}
            assert clone.fn_kwargs == {"k": 1}
            assert clone.input_staging[0].source == "s"
        assert cls().tags == {}  # nothing is shared with a fresh one

    def test_a_write_replaces_the_container_and_none_is_a_value(self):
        d = TaskDescription()
        tags = {"affinity": "a"}
        d.tags = tags
        assert d.tags is tags and d["tags"] is tags
        d["fn_kwargs"] = None  # None is always accepted, and is kept
        assert d.fn_kwargs is None and d.as_dict()["fn_kwargs"] is None
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
