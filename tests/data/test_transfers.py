"""Tests for shared-bandwidth links and the transfer scheduler."""

import pytest

from repro.data.transfers import Transfer
from repro.hpc import SharedLink
from repro.pilot import Session
from repro.sim import SimulationEngine


@pytest.fixture
def engine():
    return SimulationEngine()


def moved(session, src, dst, nbytes, uid=""):
    """Start one transfer: an event its landing resolves with the record
    (or fails with the error)."""
    ts = session.data.transfers

    def land(event, error):
        if error is None:
            event.succeed(list(ts.records)[-1])
        else:
            event.fail(error)

    landed = session.engine.event()
    ts.transfer(Transfer(src, dst, nbytes, uid, land, landed))
    return landed


class TestSharedLink:
    def test_single_flow_full_bandwidth(self, engine):
        link = SharedLink(engine, bandwidth_gbps=1.0)
        done = link.transfer(2e9)
        engine.run(until=done)
        assert engine.now == pytest.approx(2.0)

    def test_two_flows_fair_share(self, engine):
        link = SharedLink(engine, bandwidth_gbps=1.0)
        first = link.transfer(1e9)
        second = link.transfer(1e9)
        engine.run(until=first)
        # both flows drain together at bw/2: each takes 2 s, not 1 s
        assert engine.now == pytest.approx(2.0)
        engine.run(until=second)
        assert engine.now == pytest.approx(2.0)

    def test_late_joiner_slows_first_flow(self, engine):
        link = SharedLink(engine, bandwidth_gbps=1.0)
        first = link.transfer(2e9)

        def join():
            yield engine.timeout(1.0)
            done = link.transfer(1e9)
            yield done

        joiner = engine.process(join())
        engine.run(until=first)
        # first: 1 s alone (1 GB) + 2 s shared (1 GB at 0.5 GB/s) = 3 s
        assert engine.now == pytest.approx(3.0)
        engine.run(until=joiner)
        assert engine.now == pytest.approx(3.0)  # joiner finishes together

    def test_short_flow_departure_speeds_up_survivor(self, engine):
        link = SharedLink(engine, bandwidth_gbps=1.0)
        long = link.transfer(3e9)
        link.transfer(1e9)
        engine.run(until=long)
        # shared until t=2 (1 GB each), then the survivor's 2 GB at full bw
        assert engine.now == pytest.approx(4.0)

    def test_total_time_conserved_on_one_link(self, engine):
        """Fair sharing never teleports bytes: n concurrent transfers on one
        link take as long as their serial sum."""
        link = SharedLink(engine, bandwidth_gbps=2.0)
        events = [link.transfer(1e9) for _ in range(4)]
        engine.run(until=engine.all_of(events))
        assert engine.now == pytest.approx(4e9 / 2e9)

    def test_zero_byte_flow_instant(self, engine):
        link = SharedLink(engine, bandwidth_gbps=1.0)
        done = link.transfer(0)
        engine.run(until=done)
        assert engine.now == 0.0

    def test_large_timestamp_progress(self, engine):
        """Completion near a large clock value must not spin forever (the
        residual drain falls below the clock's float resolution)."""
        engine.run(until=1e9)  # push the clock far out
        link = SharedLink(engine, bandwidth_gbps=1.0)
        done = link.transfer(123456789.0)
        engine.run(until=done)
        assert engine.now > 1e9

    def test_stats_and_validation(self, engine):
        link = SharedLink(engine, bandwidth_gbps=1.0)
        link.transfer(1e9)
        link.transfer(1e9)
        assert link.active_flows == 2
        assert link.peak_concurrency == 2
        assert link.flow_rate_bps == pytest.approx(0.5e9)
        engine.run()
        assert link.active_flows == 0
        assert link.bytes_total == pytest.approx(2e9)
        assert link.flows_total == 2
        with pytest.raises(ValueError):
            link.transfer(-1)
        with pytest.raises(ValueError):
            SharedLink(engine, bandwidth_gbps=0)

    def test_eta_contention_aware(self, engine):
        link = SharedLink(engine, bandwidth_gbps=1.0)
        empty_eta = link.eta(1e9)
        link.transfer(1e9)
        assert link.eta(1e9) == pytest.approx(2 * empty_eta)


class TestTransferScheduler:
    @pytest.fixture
    def session(self):
        with Session(seed=7) as s:
            yield s

    def test_transfer_moves_bytes_and_records(self, session):
        ts = session.data.transfers
        record = session.run(until=moved(session, "localhost", "delta", 1e9,
                                         uid="t1"))
        assert record.nbytes == 1e9
        assert record.finished - record.started == pytest.approx(session.now)
        assert ts.bytes_moved == pytest.approx(1e9)
        assert ts.records == [record]

    def test_routes_get_distinct_links(self, session):
        ts = session.data.transfers
        wan = ts.link("localhost", "delta")
        local = ts.link("delta", "delta")
        assert wan is not local
        assert ts.link("delta", "localhost") is wan  # symmetric key

    def test_concurrent_same_link_contend(self, session):
        ts = session.data.transfers
        moves = [moved(session, "localhost", "delta", 1e9) for _ in range(3)]
        session.run(until=session.engine.all_of(moves))
        # ~3 s serialisation on the shared 1 GB/s WAN link (not ~1 s)
        assert session.now > 2.9

    def test_concurrent_distinct_links_overlap(self, session):
        moves = [moved(session, "localhost", "delta", 1e9),
                 moved(session, "localhost", "frontier", 1e9)]
        session.run(until=session.engine.all_of(moves))
        # different links: both finish in ~1 s, not 2 s
        assert session.now < 1.5

    def test_estimate_consumes_no_rng(self, session):
        ts = session.data.transfers
        before = session.fabric.latency("delta", "delta")  # advance stream
        for _ in range(5):
            ts.estimate("localhost", "delta", 1e9)
        # estimates must not perturb the fabric's rng stream:
        with Session(seed=7) as ref:
            ref.fabric.latency("delta", "delta")
            expected = ref.fabric.latency("localhost", "delta")
        assert session.fabric.latency("localhost", "delta") == expected

    @pytest.mark.parametrize("after", [1e-5, 0.5])  # in latency, mid-flow
    def test_a_cancelled_transfer_never_lands_and_frees_its_link(
            self, session, after):
        ts = session.data.transfers
        landed = []
        move = Transfer("localhost", "delta", 1e9, "t1",
                        lambda *args: landed.append(args), None)
        ts.transfer(move)
        survivor = moved(session, "localhost", "delta", 1e9)
        session.run(until=after)
        move.cancel()
        session.run(until=survivor)
        assert ts.link("localhost", "delta").active_flows == 0
        assert session.now < 1.5        # the survivor had the link alone
        session.run()
        assert landed == [] and ts.records == [survivor.value]
        assert session.now == survivor.value.finished  # no timer left

    def test_negative_bytes_rejected(self, session):
        with pytest.raises(ValueError):
            moved(session, "localhost", "delta", -1)
