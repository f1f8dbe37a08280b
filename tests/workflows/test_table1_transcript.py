"""The Table I run, pinned: what each use-case pipeline submits and runs.

``data/parent_table1.json`` was written by running this file as a script on
the commit where each ``build_*_pipeline`` was still a hand-written chain
graph beside its ``build_*_campaign`` twin.  The scenario is the one
``benchmarks/test_table1_usecases.py`` runs; it has to reproduce the
recording exactly: the task names of every submit call, the order in which
the pipeline's nodes start and stop, the Table I rows and the outcomes that
do not depend on the wall clock (function tasks are timed by it, so no
duration or trial-dependent accuracy is recorded).
"""

import json
from pathlib import Path

from repro import (
    PilotDescription,
    PilotManager,
    ServiceDescription,
    ServiceManager,
    Session,
    TaskManager,
)
from repro.workflows import (
    CampaignRunner,
    CellPaintingConfig,
    SignatureConfig,
    UQConfig,
    build_cell_painting_pipeline,
    build_signature_pipeline,
    build_uq_pipeline,
)

GOLDEN = Path(__file__).parent / "data" / "parent_table1.json"


def table1_transcript():
    """Run the three Table I pipelines in one session; return the record."""
    with Session(seed=13) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        smgr = ServiceManager(session, registry_platform="delta")
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=4, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        runner = CampaignRunner(session, tmgr)
        (llm,) = smgr.start_services(
            ServiceDescription(model="llama-8b", startup_timeout_s=1e6),
            pilot)
        session.run(until=llm.ready)

        calls = []
        submit = tmgr.submit_tasks

        def recording_submit(descriptions, *args, **kwargs):
            descriptions = list(descriptions)
            calls.append([d.name for d in descriptions])
            return submit(descriptions, *args, **kwargs)

        tmgr.submit_tasks = recording_submit

        pipelines = [
            build_cell_painting_pipeline(CellPaintingConfig(
                n_shards=6, images_per_shard=6, n_trials=6,
                concurrent_trials=3)),
            build_signature_pipeline(SignatureConfig(n_samples=15),
                                     llm_targets=[llm.address]),
            build_uq_pipeline(UQConfig(seeds=(0, 1))),
        ]
        record = {}
        for pipeline in pipelines:
            calls.clear()
            proc = session.engine.process(runner.run_campaign(pipeline))
            context = session.run(until=proc)
            campaign = session.profiler.uids_with_event("campaign_start")[-1]
            nodes = [[row.event, row.uid[len(campaign) + 1:]]
                     for row in session.profiler.events()
                     if row.event in ("node_start", "node_stop")
                     and row.uid.startswith(campaign + ".")]
            record[pipeline.name] = {
                "submits": list(calls),
                "nodes": nodes,
                "table_rows": pipeline.table_rows(),
                "outcomes": outcomes(pipeline.name, context["result"]),
            }
        return record


def outcomes(name, result):
    """The wall-clock-free results of one pipeline."""
    if name == "cell-painting":
        return {"n_trials": result.n_trials,
                "n_shards_total": result.n_shards_total}
    if name == "signature-detection":
        return {"recall": result.recovery_recall,
                "slope": result.linear_fit.params["slope"],
                "recovered": result.recovered_radiation_pathways,
                "llm_summaries": len(result.llm_summaries)}
    return {"best_method": {model: result.best_method_for(model)
                            for model in ("llama", "mistral")},
            "cells": [[c.model, c.method, c.seed] for c in result.cells]}


def test_table1_pipelines_reproduce_the_parent_transcript():
    golden = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(table1_transcript()))
    assert list(got) == list(golden)
    for pipeline in golden:
        for key in golden[pipeline]:
            assert got[pipeline][key] == golden[pipeline][key], \
                (pipeline, key)
    # the scenario has teeth: every stage submitted, the grid is full
    uq = got["uncertainty-quantification"]
    assert [len(names) for names in uq["submits"]] == [2, 8, 1]
    assert got["signature-detection"]["outcomes"]["llm_summaries"] == 1


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table1_transcript(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
