"""Checkpoint/restart: durable per-iteration state for iterative workflows.

The resilience ablation's checkpoint/restart arm and
``examples/fault_tolerance.py`` save through the :class:`Checkpointer`
once per round; these tests pin its save and restore."""

from repro import ResilienceConfig, Session
from repro.resilience import RetryPolicy, recovery


def resilient_session(store=None, seed=4):
    return Session(seed=seed, resilience_config=ResilienceConfig(
        retry=RetryPolicy(max_retries=1),
        checkpoint_store=store))


class TestCheckpointer:
    def test_save_registers_durable_object_and_charges_transfer(
            self, monkeypatch):
        monkeypatch.setattr(recovery, "CHECKPOINT_BYTES", 2e9)
        with resilient_session() as session:
            ckpt = session.resilience.checkpoints

            def saver():
                yield from ckpt.save("campaign", 0, {"round": 0})

            proc = session.engine.process(saver())
            session.run(until=proc)
            assert ckpt.saves == 1
            assert ckpt.latest("campaign") == (0, {"round": 0})
            # the serialized state crossed the fabric to its home (2 GB on
            # the 25 GB/s intra-platform route)
            assert session.now >= 2e9 / 25e9
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

