#!/usr/bin/env python3
"""Signature Detection pipeline (use case II-B) with an LLM service.

15 irradiated samples -> VCF generation & VEP-style annotation -> pathway
enrichment -> dose-response fits, finishing with an LLM-generated signature
summary served by a llama-8b service running on the pilot.

Run:  python examples/signature_detection.py
"""

from repro import (
    PilotDescription,
    PilotManager,
    ServiceDescription,
    ServiceManager,
    Session,
    TaskManager,
)
from repro.analytics import ReportBuilder
from repro.workflows import (
    CampaignRunner,
    SignatureConfig,
    build_signature_pipeline,
)


def main() -> None:
    config = SignatureConfig(n_samples=15, variants_per_sample=400,
                             max_dose_gy=2.0, seed=11)

    with Session(seed=11) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        smgr = ServiceManager(session, registry_platform="delta")
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e7))
        tmgr.add_pilots(pilot)

        (llm,) = smgr.start_services(
            ServiceDescription(model="llama-8b"), pilot)
        session.run(until=llm.ready)

        runner = CampaignRunner(session, tmgr)
        pipeline = build_signature_pipeline(config,
                                            llm_targets=[llm.address])
        proc = session.engine.process(runner.run_campaign(pipeline))
        context = session.run(until=proc)
        smgr.stop_services(llm)
        session.run(until=llm.stopped)

    result = context["result"]
    report = ReportBuilder("Signature Detection -- radiation-induced "
                           "mutational patterns")
    rows = [[a.sample_id, f"{a.dose_gy:.2f}", a.n_variants,
             f"{a.ct_fraction:.3f}",
             len(result.significant_by_sample[a.sample_id])]
            for a in result.annotations]
    report.add_table(["sample", "dose (Gy)", "variants", "C>T fraction",
                      "#significant pathways"], rows,
                     title="Per-sample annotation & enrichment")
    report.add_kv({
        "planted radiation pathways":
            ", ".join(result.planted_radiation_pathways),
        "recovered in high-dose samples":
            ", ".join(result.recovered_radiation_pathways) or "(none)",
        "recovery recall": f"{result.recovery_recall:.2f}",
        "linear dose-response slope":
            f"{result.linear_fit.params['slope']:.3f} "
            f"(p={result.linear_fit.p_value:.2e}, "
            f"R2={result.linear_fit.r_squared:.2f})",
        "hill fit EC50": f"{result.hill_fit.params['ec50']:.2f} Gy "
                         f"(R2={result.hill_fit.r_squared:.2f})",
    }, title="Dose-response analysis:")
    if result.llm_summaries:
        report.add_text("LLM signature summary (served model):\n  "
                        + result.llm_summaries[0][:200] + "...")
    report.print()


if __name__ == "__main__":
    main()
