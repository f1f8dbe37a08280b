"""Checkpoint/restart: durable per-iteration state for iterative workflows."""

import pytest

from repro import (
    PilotDescription,
    PilotManager,
    ResilienceConfig,
    Session,
    TaskManager,
)
from repro.resilience import RetryPolicy, recovery
from repro.workflows import (
    CampaignRunner,
    CellPaintingConfig,
    build_cell_painting_pipeline,
    build_uq_campaign,
)
from repro.workflows.uq import UQConfig


def resilient_session(store=None, seed=4):
    return Session(seed=seed, resilience_config=ResilienceConfig(
        retry=RetryPolicy(max_retries=1),
        checkpoint_store=store))


@pytest.fixture
def every(monkeypatch):
    """``every(k)``: a checkpoint is due every k-th iteration."""
    return lambda k: monkeypatch.setattr(recovery, "CHECKPOINT_INTERVAL", k)


def runner_with_pilot(session, nodes=2):
    pmgr = PilotManager(session)
    tmgr = TaskManager(session)
    (pilot,) = pmgr.submit_pilots(
        PilotDescription(resource="delta", nodes=nodes, runtime_s=1e9))
    tmgr.add_pilots(pilot)
    return CampaignRunner(session, tmgr)


class TestCheckpointer:
    def test_save_registers_durable_object_and_charges_transfer(
            self, monkeypatch):
        monkeypatch.setattr(recovery, "CHECKPOINT_BYTES", 2e9)
        with resilient_session() as session:
            ckpt = session.resilience.checkpoints

            def saver():
                yield from ckpt.save("campaign", 0, {"round": 0},
                                     src_platform="delta")

            proc = session.engine.process(saver())
            session.run(until=proc)
            assert ckpt.saves == 1
            assert ckpt.latest("campaign") == (0, {"round": 0})
            # the serialized state crossed the fabric (2 GB at 1 GB/s WAN)
            assert session.now >= 2.0
            # and the object is durable at its home: registered replica
            from repro.data.objects import object_id
            oid = object_id("ckpt/campaign/0", 2e9)
            assert session.data.holds("localhost", oid)

    def test_latest_returns_most_recent_iteration(self):
        with resilient_session() as session:
            ckpt = session.resilience.checkpoints

            def saver():
                for i in range(3):
                    yield from ckpt.save("k", i, f"state-{i}", nbytes=0)

            session.run(until=session.engine.process(saver()))
            assert ckpt.latest("k") == (2, "state-2")

    def test_due_follows_interval_policy(self, every):
        every(3)
        with resilient_session() as session:
            ckpt = session.resilience.checkpoints
            assert [ckpt.due(i) for i in range(6)] == \
                [False, False, True, False, False, True]

    def test_interval_policy_gates_workflow_saves(self, every):
        """A save due every 2nd iteration: the UQ campaign persists its
        frontier at most every 2nd completed node plus the final one, and
        the final frontier lists every node."""
        every(2)
        store = {}
        with resilient_session(store=store) as session:
            runner = runner_with_pilot(session)
            graph = build_uq_campaign(UQConfig())
            proc = session.engine.process(
                runner.run_campaign(graph, checkpoint_key="uq-gated"))
            session.run(until=proc)
            # 2 data nodes + 12 cells + aggregate
            assert len(graph) == 15
            assert 1 <= session.resilience.checkpoints.saves <= 15 // 2 + 1
            _, frontier = store["uq-gated/frontier"]
            assert frontier["completed"][graph.name] == \
                graph.topological_order()

    def test_uq_campaign_resumes_from_its_frontier(self, every):
        """Killed after its first frontier save, the UQ campaign resumes
        in a new session on the same store: it ends with every cell
        exactly once, and fits only the cells the frontier lacked."""
        from repro.sim.events import Interrupt

        store = {}

        def cells_of(nodes):
            return [n for n in nodes if n.startswith("cell-")]

        # every 3rd completion saves: the first frontier holds both data
        # nodes and a cell
        every(3)

        def run(kill_after_first_save=False, seed=4):
            with resilient_session(store=store, seed=seed) as session:
                runner = runner_with_pilot(session)
                graph = build_uq_campaign(UQConfig())

                def campaign():
                    try:
                        return (yield from runner.run_campaign(
                            graph, checkpoint_key="uq-resume"))
                    except Interrupt:
                        return None

                proc = session.engine.process(campaign())
                if kill_after_first_save:
                    while "uq-resume/frontier" not in store \
                            and proc.is_alive:
                        session.run(until=session.now + 0.5)
                    proc.interrupt("killed")
                    session.run(until=session.now + 2.0)
                    return None, runner
                return session.run(until=proc), runner

        run(kill_after_first_save=True)  # dies mid-grid
        _, frontier = store["uq-resume/frontier"]
        saved = cells_of(frontier["completed"]["uncertainty-quantification"])
        assert 0 < len(saved) < 12
        context, runner = run(seed=6)
        cells = context["result"].cells
        assert len(cells) == 12
        # every (model, method, seed) cell present exactly once
        assert len({(c.model, c.method, c.seed) for c in cells}) == 12
        fitted = cells_of(key.split("/")[1] for key in runner.node_tasks)
        assert len(fitted) == 12 - len(saved)
        assert not set(fitted) & set(saved)

    def test_store_survives_across_sessions(self):
        store = {}
        with resilient_session(store=store) as session:
            ckpt = session.resilience.checkpoints

            def saver():
                yield from ckpt.save("x", 4, [1, 2, 3], nbytes=0)

            session.run(until=session.engine.process(saver()))
        with resilient_session(store=store, seed=5) as session:
            assert session.resilience.checkpoints.latest("x") == \
                (4, [1, 2, 3])


class TestCellPaintingCheckpointing:
    def run_pipeline(self, store, seed, kill_at=None):
        """Run the pipeline; optionally kill the campaign process mid-way."""
        from repro.sim.events import Interrupt

        with resilient_session(store=store, seed=seed) as session:
            runner = runner_with_pilot(session)
            pipeline = build_cell_painting_pipeline(CellPaintingConfig(
                n_shards=3, images_per_shard=4, min_shards_to_train=2,
                n_trials=8, concurrent_trials=2,
                checkpoint_key="cp-campaign"))

            # NB: no run_campaign checkpoint_key here -- this pipeline stashes
            # live Task handles in its context, so cross-session restarts
            # rely on the HPO stage's own round-level checkpoints (stage 1
            # re-runs, told trials are not re-fitted).
            def campaign():
                try:
                    return (yield from runner.run_campaign(pipeline))
                except Interrupt:
                    return None  # the campaign process died

            proc = session.engine.process(campaign())
            if kill_at is not None:
                session.run(until=kill_at)
                proc.interrupt("campaign killed")
                # bounded run: heartbeats keep an immortal pilot's event
                # stream alive, so a full drain would never return
                session.run(until=session.now + 5.0)
                return None, session.resilience.checkpoints
            context = session.run(until=proc)
            return context, session.resilience.checkpoints

    def test_killed_campaign_resumes_from_round_checkpoint(self):
        store = {}
        # first attempt dies mid-HPO: some rounds checkpointed, not all
        _, ckpt1 = self.run_pipeline(store, seed=4, kill_at=12.0)
        saved_rounds = store.get("cp-campaign/hpo-rounds")
        assert saved_rounds is not None, "at least one round must persist"
        told_before = len(saved_rounds[1])
        assert 0 < told_before < 8
        # the restarted campaign resumes and only replays lost trials
        context, ckpt2 = self.run_pipeline(store, seed=6)
        assert context is not None
        result = context["result"]
        study = context["study"]
        told_after = [t for t in study.trials if t.state != "RUNNING"]
        assert len(told_after) == 8
        assert ckpt2.restores >= 1
        # restored trials carried their values (not re-run): the study's
        # first told_before trials match the persisted snapshot exactly
        for trial, (params, value, state) in zip(study.trials,
                                                 saved_rounds[1]):
            assert trial.params == params

    def test_unkilled_campaign_saves_every_round(self):
        store = {}
        context, ckpt = self.run_pipeline(store, seed=4)
        assert context is not None
        # 8 trials / 2 per round = 4 round saves + 2 stage saves
        iteration, snap = store["cp-campaign/hpo-rounds"]
        assert len(snap) == 8
        assert ckpt.saves >= 4
