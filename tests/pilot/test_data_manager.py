"""Tests for the DataManager staging model (over the data subsystem)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.pilot import DataManager, Session, StagingDirective, TaskDescription
from repro.pilot.data_manager import Staging
from repro.utils.config import ConfigError

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def session():
    with Session(seed=4) as s:
        yield s


@pytest.fixture
def dmgr(session):
    return DataManager(session)


def _land(event, error):
    if error is None:
        event.succeed()
    else:
        event.fail(error)


def staged(session, dmgr, directives, platform="delta", uid="task.x",
           phase="stage_in"):
    """Start one staging call: an event its landing succeeds, or fails with
    the error it lands with."""
    landed = session.engine.event()
    dmgr.stage(directives, platform, uid, phase, Staging(_land, landed))
    return landed


def run_stage(session, dmgr, directives, **kwargs):
    session.run(until=staged(session, dmgr, directives, **kwargs))


class TestStageDurations:
    """What staging one directive alone costs, staged and estimated
    (``TransferScheduler.estimate``, what source selection reads)."""

    def test_link_is_free(self, session, dmgr):
        directive = StagingDirective(action="link", source="a", target="b")
        run_stage(session, dmgr, [directive])
        assert session.now == 0.0
        assert dmgr.bytes_transferred == 0.0

    def test_transfer_charges_wan_bandwidth(self, session, dmgr):
        directive = StagingDirective(action="transfer", source="a",
                                     target="b", size_bytes=int(2e9))
        # 2 GB over ~1 GB/s WAN
        assert session.data.transfers.estimate("localhost", "delta",
                                               2e9) > 1.5
        run_stage(session, dmgr, [directive])
        assert session.now > 1.5

    def test_copy_is_intra_platform(self, session, dmgr):
        big = int(5e9)
        transfers = session.data.transfers
        assert transfers.estimate("delta", "delta", big) < \
            transfers.estimate("localhost", "delta", big)
        copy = StagingDirective(action="copy", source="a", target="b",
                                size_bytes=big)
        transfer = StagingDirective(action="transfer", source="c",
                                    target="d", size_bytes=big)
        run_stage(session, dmgr, [copy])
        copied = session.now
        run_stage(session, dmgr, [transfer])
        assert copied < session.now - copied


class TestStagingProcess:
    def test_distinct_directives_accumulate(self, session, dmgr):
        directives = [
            StagingDirective(source=f"f{i}", target=f"g{i}",
                             size_bytes=int(1e9)) for i in range(3)]
        run_stage(session, dmgr, directives)
        # concurrent, but fair-shared on one WAN link: still ~3 s of wire time
        assert session.now > 2.5
        assert dmgr.bytes_transferred == pytest.approx(3e9)

    def test_profile_events_recorded(self, session, dmgr):
        directives = [StagingDirective(source="a", target="b",
                                       size_bytes=1000)]
        run_stage(session, dmgr, directives, uid="task.y", phase="stage_out")
        duration = session.profiler.duration("task.y", "stage_out_start",
                                             "stage_out_stop")
        assert duration is not None and duration >= 0

    def test_empty_directives_instant(self, session, dmgr):
        run_stage(session, dmgr, [], uid="task.z")
        assert session.now == 0.0
        assert session.profiler.duration("task.z", "stage_in_start",
                                         "stage_in_stop") == 0.0

    def test_zero_byte_transfer_costs_latency_only(self, session, dmgr):
        directives = [StagingDirective(source="empty.flag", target="f",
                                       size_bytes=0)]
        run_stage(session, dmgr, directives)
        assert 0 < session.now < 0.1   # one-way latency, no serialisation
        assert dmgr.bytes_transferred == 0.0
        assert dmgr.cache_misses == 1

    def test_unknown_platform_fails_stage(self, session, dmgr):
        directives = [StagingDirective(source="a", size_bytes=10)]
        with pytest.raises(KeyError):
            run_stage(session, dmgr, directives, platform="atlantis")


    def test_first_failure_is_the_lowest_directive_index(self, session, dmgr,
                                                         monkeypatch):
        """Every directive settles before stage() raises, and what it raises
        is the failure of the lowest directive index -- not of whichever
        child happened to fail first in time."""
        settled = []

        def resolve(move):
            name = move.directive.source

            def settle(_):
                settled.append((name, session.now))
                dmgr._settle(move.staging, move.index, None if name == "fine"
                             else OSError(f"{name} failed"))

            if name == "slow":   # index 0: fails late
                move.wait = session.engine.call_later(5.0, settle)
            else:
                settle(None)

        monkeypatch.setattr(dmgr, "_resolve", resolve)
        directives = [StagingDirective(source=name, size_bytes=10)
                      for name in ("slow", "fine", "fast")]
        with pytest.raises(OSError, match="slow failed"):
            run_stage(session, dmgr, directives)
        assert settled == [("fine", 0.0), ("fast", 0.0), ("slow", 5.0)]
        assert session.profiler.timestamp("task.x", "stage_in_stop") == 5.0


class TestLinkAccounting:
    def test_link_directives_move_no_bytes(self, session, dmgr):
        """Satellite fix: free ``link`` directives must not inflate the
        bytes-moved metric (the seed counted their size_bytes)."""
        directives = [
            StagingDirective(action="link", source="a", target="b",
                             size_bytes=int(5e9)),
            StagingDirective(action="transfer", source="c", target="d",
                             size_bytes=int(1e9)),
        ]
        run_stage(session, dmgr, directives)
        assert dmgr.bytes_transferred == pytest.approx(1e9)
        assert dmgr.links_total == 1


class TestCacheAndDedup:
    def test_repeated_input_is_free(self, session, dmgr):
        directive = StagingDirective(source="dataset", size_bytes=int(1e9))
        run_stage(session, dmgr, [directive])
        first = session.now
        run_stage(session, dmgr, [directive], uid="task.2")
        assert session.now == first  # warm replica: zero time
        assert dmgr.bytes_transferred == pytest.approx(1e9)
        assert dmgr.cache_hits == 1
        assert dmgr.bytes_saved == pytest.approx(1e9)

    def test_cache_is_per_platform(self, session, dmgr):
        directive = StagingDirective(source="dataset", size_bytes=int(1e9))
        run_stage(session, dmgr, [directive], platform="delta")
        run_stage(session, dmgr, [directive], platform="frontier",
                  uid="task.2")
        assert dmgr.cache_misses == 2
        assert dmgr.bytes_transferred == pytest.approx(2e9)

    def test_second_platform_pulls_from_nearest_replica(self, session, dmgr):
        """The second platform may fetch from whichever holder is cheapest
        (all WAN routes tie here, but a replica must exist on both after)."""
        directive = StagingDirective(source="dataset", size_bytes=int(1e9))
        run_stage(session, dmgr, [directive], platform="delta")
        run_stage(session, dmgr, [directive], platform="frontier",
                  uid="task.2")
        data = session.data
        oid = data.intern("dataset", int(1e9)).oid
        assert data.holds("delta", oid)
        assert data.holds("frontier", oid)
        assert data.holds("localhost", oid)  # durable origin

    def test_concurrent_same_object_deduplicated(self, session, dmgr):
        """Two tasks staging the same object to one platform at the same
        time coalesce into a single transfer."""
        directive = StagingDirective(source="dataset", size_bytes=int(1e9))
        calls = [staged(session, dmgr, [directive], uid=f"task.{i}")
                 for i in range(3)]
        session.run(until=session.engine.all_of(calls))
        assert dmgr.cache_misses == 1
        assert dmgr.dedup_hits == 2
        assert dmgr.bytes_transferred == pytest.approx(1e9)
        assert session.now < 1.5  # one transfer, not three fair-shared

    def test_dedup_can_be_disabled(self, session):
        from repro.data import DataConfig
        with Session(seed=4, data_config=DataConfig(
                dedup_inflight=False)) as s:
            dmgr = DataManager(s)
            directive = StagingDirective(source="dataset",
                                         size_bytes=int(1e9))
            calls = [staged(s, dmgr, [directive], uid=f"task.{i}")
                     for i in range(2)]
            s.run(until=s.engine.all_of(calls))
            assert dmgr.cache_misses == 2
            assert dmgr.bytes_transferred == pytest.approx(2e9)

    def test_cache_disabled_restages_every_time(self, session):
        from repro.data import DataConfig
        with Session(seed=4, data_config=DataConfig(
                cache_enabled=False)) as s:
            dmgr = DataManager(s)
            directive = StagingDirective(source="dataset",
                                         size_bytes=int(1e9))
            run_stage(s, dmgr, [directive])
            run_stage(s, dmgr, [directive], uid="task.2")
            assert dmgr.cache_misses == 2
            assert dmgr.cache_hits == 0

    def test_dedup_spans_managers_in_one_session(self, session):
        """In-flight dedup is session-scoped: two DataManagers staging the
        same object to one platform coalesce into a single transfer."""
        a = DataManager(session)
        b = DataManager(session)
        directive = StagingDirective(source="dataset", size_bytes=int(1e9))
        calls = [staged(session, a, [directive], uid="task.a"),
                 staged(session, b, [directive], uid="task.b")]
        session.run(until=session.engine.all_of(calls))
        assert a.bytes_transferred + b.bytes_transferred == \
            pytest.approx(1e9)
        assert a.dedup_hits + b.dedup_hits == 1

    def test_stage_out_never_collapses_same_named_outputs(self, session,
                                                          dmgr):
        """Each stage-out carries freshly produced data: two tasks writing
        the same output name/size must both pay their transfer."""
        directive = StagingDirective(source="model.ckpt",
                                     size_bytes=int(1e9))
        run_stage(session, dmgr, [directive], uid="task.1",
                  phase="stage_out")
        run_stage(session, dmgr, [directive], uid="task.2",
                  phase="stage_out")
        assert dmgr.bytes_transferred == pytest.approx(2e9)
        assert dmgr.cache_hits == 0

    def test_copy_never_rerouted_over_wan(self, session, dmgr):
        """An intra-platform copy must use the local route even when a
        remote replica of the same object exists."""
        directive = StagingDirective(source="x", size_bytes=int(10e9))
        run_stage(session, dmgr, [directive], platform="frontier")
        t0 = session.now
        copy = StagingDirective(action="copy", source="x",
                                size_bytes=int(10e9))
        run_stage(session, dmgr, [copy], platform="delta", uid="task.2")
        # 10 GB at 25 GB/s local bandwidth, not 10 s over the 1 GB/s WAN
        assert session.now - t0 < 1.0

    def test_stage_out_registers_replicas_both_sides(self, session, dmgr):
        directive = StagingDirective(source="result.h5",
                                     size_bytes=int(1e8))
        run_stage(session, dmgr, [directive], phase="stage_out")
        data = session.data
        oid = data.intern("result.h5", int(1e8)).oid
        assert data.holds("localhost", oid)  # durable at the client
        assert data.holds("delta", oid)      # cached where it was produced


class TestDeterminism:
    def test_transfer_time_rng_is_reproducible(self):
        """Satellite: same seed, same staging plan => identical timings."""
        def run_once():
            with Session(seed=123) as s:
                dmgr = DataManager(s)
                directives = [
                    StagingDirective(source=f"f{i}", size_bytes=int(1e8))
                    for i in range(4)]
                run_stage(s, dmgr, directives)
                return s.now, tuple(dmgr.transfer_wait_s)

        assert run_once() == run_once()

    def test_links_come_into_being_in_the_same_order_whatever_the_hash(
            self):
        """Choosing among three holders creates their links: in an order
        that string hashing (``PYTHONHASHSEED``) must not decide."""
        script = textwrap.dedent("""
            from repro.pilot import DataManager, Session, StagingDirective
            from repro.pilot.data_manager import Staging
            with Session(seed=4) as s:
                dmgr = DataManager(s)
                d = StagingDirective(source="dataset", size_bytes=int(1e9))
                for platform in ("delta", "frontier", "r3"):
                    landed = s.engine.event()
                    dmgr.stage([d], platform, "task." + platform, "stage_in",
                               Staging(lambda e, error: e.succeed(), landed))
                    s.run(until=landed)
                print(list(s.data.transfers.links()))
            """)
        orders = {subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONHASHSEED=str(seed),
                                 PYTHONPATH=SRC)).stdout
            for seed in range(4)}
        assert len(orders) == 1, orders

    def test_fabric_transfer_time_stream_deterministic(self):
        draws = []
        for _ in range(2):
            with Session(seed=9) as s:
                draws.append(tuple(
                    s.fabric.transfer_time("localhost", "delta", 1e9)
                    for _ in range(5)))
        assert draws[0] == draws[1]
        assert len(set(draws[0])) > 1  # latency jitter actually samples


class TestStagingDirectiveParsing:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigError):
            StagingDirective(action="teleport", source="a")

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            StagingDirective(source="a", size_bytes=-1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            StagingDirective(source="a", compression="zstd")

    def test_bad_size_type_rejected(self):
        with pytest.raises(ConfigError):
            StagingDirective(source="a", size_bytes="lots")

    def test_task_description_coerces_dicts(self):
        desc = TaskDescription(executable="x", input_staging=[
            {"source": "a", "size_bytes": 10}])
        assert isinstance(desc.input_staging[0], StagingDirective)
        assert desc.input_staging[0].action == "transfer"

    def test_task_description_rejects_non_directives(self):
        with pytest.raises(ConfigError):
            TaskDescription(executable="x", input_staging=["a,b,10"])

    def test_defaults(self):
        d = StagingDirective()
        assert d.action == "transfer"
        assert d.size_bytes == 0
        assert d.source == "" and d.target == ""
