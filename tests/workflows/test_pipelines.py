"""Integration tests: the three LUCID pipelines on the runtime."""

import re

import pytest

from repro import (
    PilotDescription,
    PilotManager,
    ServiceDescription,
    ServiceManager,
    Session,
    TaskManager,
)
from repro.workflows import (
    CampaignGraph,
    CampaignRunner,
    CellPaintingConfig,
    SignatureConfig,
    StageFailure,
    TaskNode,
    UQConfig,
    build_cell_painting_pipeline,
    build_signature_pipeline,
    build_uq_pipeline,
)
from repro.pilot.description import TaskDescription


@pytest.fixture
def env():
    with Session(seed=17) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        runner = CampaignRunner(session, tmgr)
        yield session, tmgr, runner, pmgr, pilot


def run(session, runner, pipeline, context=None):
    proc = session.engine.process(
        runner.run_campaign(pipeline, contexts=context))
    return session.run(until=proc)


class TestDagLayer:
    """A pipeline is a chain graph: one node per stage."""

    def test_stage_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            TaskNode(name="bad")
        with pytest.raises(ValueError):
            TaskNode(name="bad", build=lambda c: [],
                     run=lambda r, c: iter(()))

    def test_pipeline_rejects_duplicate_stages(self):
        stage = TaskNode(name="s", build=lambda c: [])
        with pytest.raises(ValueError, match="duplicate"):
            CampaignGraph(name="p", nodes=[stage, stage])

    def test_declarative_stage_runs_and_collects(self, env):
        session, tmgr, runner, _, _ = env
        pipeline = CampaignGraph(name="simple", nodes=[
            TaskNode(
                name="compute",
                build=lambda ctx: [
                    TaskDescription(function=lambda i=i: i * i)
                    for i in range(4)],
                collect=lambda ctx, tasks: ctx.update(
                    squares=sorted(t.result for t in tasks))),
        ])
        context = run(session, runner, pipeline)
        assert context["squares"] == [0, 1, 4, 9]

    def test_stage_failure_propagates(self, env):
        session, tmgr, runner, _, _ = env

        def boom():
            raise RuntimeError("stage exploded")

        pipeline = CampaignGraph(name="failing", nodes=[
            TaskNode(name="bad", build=lambda ctx: [
                TaskDescription(function=boom)]),
        ])
        proc = session.engine.process(runner.run_campaign(pipeline))
        with pytest.raises(StageFailure):
            session.run(until=proc)

    def test_failure_tolerance_allows_partial(self, env):
        session, tmgr, runner, _, _ = env

        def maybe_boom(i):
            if i == 0:
                raise RuntimeError("one bad apple")
            return i

        pipeline = CampaignGraph(name="tolerant", nodes=[
            TaskNode(
                name="mixed", failure_tolerance=0.5,
                build=lambda ctx: [
                    TaskDescription(function=maybe_boom, fn_args=(i,))
                    for i in range(4)],
                collect=lambda ctx, tasks: ctx.update(done=True)),
        ])
        context = run(session, runner, pipeline)
        assert context["done"]

    def test_stage_timings_profiled(self, env):
        session, tmgr, runner, _, _ = env
        pipeline = CampaignGraph(name="timed", nodes=[
            TaskNode(name="only", build=lambda ctx: [
                TaskDescription(executable="x", duration_s=5.0)]),
        ])
        run(session, runner, pipeline)
        (campaign,) = session.profiler.uids_with_event("campaign_start")
        duration = session.profiler.duration(
            f"{campaign}.only", "node_start", "node_stop")
        assert duration >= 5.0


SMALL_CP = CellPaintingConfig(n_shards=4, images_per_shard=4, image_size=16,
                              n_trials=4, concurrent_trials=2,
                              min_shards_to_train=2, trial_epochs=5)


class TestCellPainting:
    def test_end_to_end(self, env):
        session, tmgr, runner, _, _ = env
        context = run(session, runner,
                      build_cell_painting_pipeline(SMALL_CP))
        result = context["result"]
        assert 0.0 <= result.best_val_accuracy <= 1.0
        assert result.n_trials == 4
        assert result.n_shards_total == 4
        assert set(result.best_params) == {
            "learning_rate", "batch_size", "weight_decay", "dropout"}

    def test_training_overlaps_data_prep(self, env):
        session, tmgr, runner, _, _ = env
        config = CellPaintingConfig(
            n_shards=8, images_per_shard=6, image_size=16, n_trials=4,
            concurrent_trials=2, min_shards_to_train=2, trial_epochs=5)
        context = run(session, runner, build_cell_painting_pipeline(config))
        assert context["result"].n_shards_used_first_round <= 8

    def test_table_rows(self):
        pipeline = build_cell_painting_pipeline(SMALL_CP)
        rows = pipeline.table_rows()
        assert [r["resource_type"] for r in rows] == ["CPU", "GPU"]
        assert all(r["as_service"] for r in rows)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CellPaintingConfig(min_shards_to_train=10, n_shards=2).validate()

    @pytest.mark.parametrize("field", [
        "n_trials", "concurrent_trials", "trial_epochs"])
    def test_trial_counts_must_be_positive(self, field):
        # zero concurrent trials asked for nothing each HPO round and
        # looped forever; zero trials failed only after the data stage
        with pytest.raises(ValueError, match=field):
            CellPaintingConfig(**{field: 0}).validate()
        with pytest.raises(ValueError, match=field):
            build_cell_painting_pipeline(CellPaintingConfig(**{field: 0}))


class TestSignatureDetection:
    def test_end_to_end_without_llm(self, env):
        session, tmgr, runner, _, _ = env
        config = SignatureConfig(n_samples=8, variants_per_sample=150,
                                 seed=4)
        context = run(session, runner, build_signature_pipeline(config))
        result = context["result"]
        assert len(result.annotations) == 8
        assert result.linear_fit.params["slope"] > 0
        assert result.llm_summaries == []

    def test_end_to_end_with_llm_service(self, env):
        session, tmgr, runner, pmgr, pilot = env
        smgr = ServiceManager(session, registry_platform="delta")
        (llm,) = smgr.start_services(
            ServiceDescription(model="llama-8b", startup_timeout_s=1e6),
            pilot)
        session.run(until=llm.ready)
        config = SignatureConfig(n_samples=6, variants_per_sample=120,
                                 seed=4)
        context = run(session, runner,
                      build_signature_pipeline(
                          config, llm_targets=[llm.address]))
        result = context["result"]
        assert len(result.llm_summaries) == 1
        assert len(result.llm_summaries[0].split()) > 5

    def test_dose_signature_recovered(self, env):
        session, tmgr, runner, _, _ = env
        config = SignatureConfig(n_samples=15, variants_per_sample=400,
                                 seed=6)
        context = run(session, runner, build_signature_pipeline(config))
        result = context["result"]
        assert result.linear_fit.responsive
        assert result.recovery_recall > 0.3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SignatureConfig(n_samples=2).validate()


class TestUQ:
    def test_end_to_end(self, env):
        session, tmgr, runner, _, _ = env
        config = UQConfig(seeds=(0, 1), n_train=80, n_test=40)
        context = run(session, runner, build_uq_pipeline(config))
        result = context["result"]
        assert len(result.cells) == 2 * 2 * 2
        assert len(result.summary) == 4
        for row in result.summary:
            assert row.n_seeds == 2
            assert 0.0 <= row.accuracy_mean <= 1.0

    def test_planted_model_quality_ordering(self, env):
        session, tmgr, runner, _, _ = env
        config = UQConfig(seeds=(0, 1, 2), n_train=160, n_test=80)
        context = run(session, runner, build_uq_pipeline(config))
        result = context["result"]
        llama = [r.accuracy_mean for r in result.summary
                 if r.model == "llama"]
        mistral = [r.accuracy_mean for r in result.summary
                   if r.model == "mistral"]
        # llama features are less noisy by construction
        assert max(llama) >= max(mistral)

    def test_best_method_lookup(self, env):
        session, tmgr, runner, _, _ = env
        config = UQConfig(seeds=(0,), n_train=60, n_test=30)
        context = run(session, runner, build_uq_pipeline(config))
        assert context["result"].best_method_for("llama") in (
            "bayesian-lora", "lora-ensemble")
        with pytest.raises(KeyError):
            context["result"].best_method_for("gemma")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UQConfig(models=()).validate()
        with pytest.raises(ValueError):
            UQConfig(n_train=5).validate()

    @pytest.mark.parametrize("axis, values, repeated", [
        ("models", ("llama", "mistral", "llama"), "['llama']"),
        ("methods", ("lora-ensemble", "lora-ensemble"), "['lora-ensemble']"),
        ("seeds", (0, 1, 1, 0), "[0, 1]")])
    def test_duplicate_grid_values_are_refused(self, axis, values,
                                               repeated):
        # a repeated model silently doubled its cells (n_seeds=4 for two
        # seeds); the error names the duplicates
        with pytest.raises(ValueError,
                           match=re.escape(f"duplicate {axis}: {repeated}")):
            UQConfig(**{axis: values}).validate()
