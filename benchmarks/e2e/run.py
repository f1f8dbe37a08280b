#!/usr/bin/env python3
"""The benchmark of record: four public-API workloads, end to end and by layer.

Two ways to run it (README.md has the glossary):

* the whole benchmark --
  ``python benchmarks/e2e/run.py [--seed S] [--quick] [--out DIR] [--aa]``
  measures every workload untraced, runs one more repetition on a held-out
  seed and one traced repetition; checks outputs; prints every metric by
  name with its unit; writes ``result.json``, per-repetition records and
  Chrome traces under ``--out``;
* one measurement, for a driver --
  ``python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1``
  prints one JSON object on the last line of stdout: the end-to-end
  metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) named in
  ``BENCHMARK.json``.  Nothing is written to disk.

A **measurement** is ``REPS`` repetitions of one (workload, seed, size), each
in a fresh subprocess (rep.py) under its own ``PYTHONHASHSEED``, whose timed
phases together last about ``--seconds`` on the reference host.  Every
metric is computed per repetition and reported as the median over
repetitions.  Host times are reference seconds (hostspeed.py): seconds as
measured, scaled by the host speed sampled while they were measured.
Workload size is a fixed function of ``--seconds``, never of how fast the
host turned out to be.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: repetitions per measurement
REPS = 3
#: quiet-host seconds one repetition takes at the reference sizes (scale 1)
REFERENCE_SECONDS = 10.0
#: ``--quick``: 1/20 of the reference sizes
QUICK_SCALE = 0.05
DEFAULT_SEED = 11
#: never used while the benchmark (or a later change) was written
HELDOUT_SEED = 29
REP_TIMEOUT_S = 170

#: end-to-end metrics: name -> (unit, clock, better).  ``failed_ops_share``
#: is always reported here; BENCHMARK.json carries it as attempted/failed
#: because its schema has no place for a metric whose good value is 0.
END_TO_END = {
    "ops_per_s": ("1/s", "host", "higher"),
    "cpu_us_per_op": ("us", "host", "lower"),
    "setup_s": ("s", "host", "lower"),
    "peak_rss_mb": ("MB", "host", "lower"),
    "sim_makespan_s": ("s", "sim", "lower"),
    "sim_latency_p50_s": ("s", "sim", "lower"),
    "sim_latency_p99_s": ("s", "sim", "lower"),
    "failed_ops_share": ("ratio", "-", "lower"),
}


class BenchmarkError(Exception):
    """A repetition failed, or a correctness / determinism check did."""


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- one repetition ----------------------------------------------------------
def run_rep(workload: str, seed: int, scale: float, trace: bool,
            hashseed: int, trace_out: Optional[Path] = None,
            ) -> Dict[str, Any]:
    spec = {"workload": workload, "seed": seed, "scale": scale,
            "trace": int(trace),
            "trace_out": str(trace_out) if trace_out else None}
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")]
                                 if p]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
        env=env, cwd=str(HERE), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload}: repetition exited {proc.returncode}\n"
            f"{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if record["errors"]:
        raise BenchmarkError(f"{workload}: correctness checks failed: "
                             + "; ".join(record["errors"]))
    if record["harness"]["threads"] != 1:
        raise BenchmarkError(f"{workload}: {record['harness']['threads']} "
                             f"threads alive, the benchmark assumes 1")
    return record


# -- one measurement -----------------------------------------------------------
def measure(workload: str, seed: int, scale: float, reps: int = REPS,
            ) -> Dict[str, Any]:
    """One measurement: *reps* repetitions -> per-repetition metric values.

    Applies the determinism gate: repetitions run under different
    ``PYTHONHASHSEED`` values and must agree on every simulated number.
    """
    records = [run_rep(workload, seed, scale, False, hashseed=i)
               for i in range(reps)]
    first = records[0]
    for rec in records[1:]:
        if (rec["sim_digest"], rec["sim"]) != (first["sim_digest"],
                                               first["sim"]):
            raise BenchmarkError(
                f"{workload}: simulated results differ between repetitions "
                f"of one seed (PYTHONHASHSEED {first['hashseed']} vs "
                f"{rec['hashseed']}): {first['sim']} / "
                f"{first['sim_digest'][:12]} != {rec['sim']} / "
                f"{rec['sim_digest'][:12]}")
    per_rep = {
        "ops_per_s": [r["completed"] / r["wall_s"] for r in records],
        "cpu_us_per_op": [r["cpu_s"] / r["completed"] * 1e6
                          for r in records],
        "setup_s": [statistics.median(r["setup_samples_s"])
                    * r["setup_host_speed"] for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        "failed_ops_share": [r["failed"] / r["attempted"] for r in records],
    }
    for name in first["sim"]:
        per_rep[name] = [r["sim"][name] for r in records]
    return {
        "records": records,
        "sim_digest": first["sim_digest"],
        "attempted": first["attempted"],
        "failed": first["failed"],
        "per_rep": per_rep,
        "values": {name: statistics.median(v) for name, v in per_rep.items()},
    }


def per_layer(traced: Dict[str, Any], untraced_wall_s: float,
              contract: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Every per-layer number of one traced repetition, by metric name.

    A layer of the contract that opened no span did no work here: its
    ``self_s``/``share`` read 0.  A counter whose source is gone reads None.
    """
    trace = traced["trace"]
    out: Dict[str, Optional[float]] = {
        m["name"]: 0.0 if m["name"].endswith((".self_s", ".share")) else None
        for m in contract["per_layer"]}
    for layer, row in trace["layers"].items():
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.share"] = row["share"]
    out.update(traced["counts"])
    out["pilot.task_manager.submit_s"] = traced["submit_s"]
    for part, value in traced["setup_parts"].items():
        out[f"setup.{part}"] = value
    out["trace.overhead_x"] = traced["wall_s"] / untraced_wall_s
    out["trace.closure_gap"] = trace["closure_gap"]
    out["trace.absent"] = len(trace["absent"])
    out["trace.spans"] = trace["spans"]
    return out


def traced_layers(workload: str, seed: int, scale: float,
                  taken: Dict[str, Any], contract: Dict[str, Any],
                  trace_out: Optional[Path] = None) -> Dict[str, Any]:
    """The traced repetition that goes with the untraced measurement *taken*."""
    traced = run_rep(workload, seed, scale, True, hashseed=0,
                     trace_out=trace_out)
    if traced["sim_digest"] != taken["sim_digest"]:
        raise BenchmarkError(f"{workload}: tracing changed the simulated "
                             f"results ({traced['sim_digest'][:12]} != "
                             f"{taken['sim_digest'][:12]})")
    # raw seconds on both sides: the traced repetition is not normalised
    untraced_wall_s = statistics.median(r["wall_s"] / r["host_speed"]
                                        for r in taken["records"])
    traced["per_layer"] = per_layer(traced, untraced_wall_s, contract)
    return traced


def summarise(values: List[float]) -> Dict[str, Any]:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


# -- the whole benchmark -------------------------------------------------------
def full_workload(workload: str, seed: int, quick: bool, scale: float,
                  contract: Dict[str, Any], out: Path) -> Dict[str, Any]:
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    why = {w["name"]: w["why"] for w in contract["workloads"]}
    taken = measure(workload, seed, scale, 1 if quick else REPS)
    traced = traced_layers(workload, seed, scale, taken, contract,
                           out / f"{workload}.trace.json")
    records = taken["records"] + [traced]
    heldout = None
    if not quick:
        held = measure(workload, HELDOUT_SEED, scale, reps=1)
        records += held["records"]
        heldout = {"seed": HELDOUT_SEED, "sim_digest": held["sim_digest"],
                   "end_to_end": held["values"]}
    for i, rec in enumerate(records):
        (out / f"{workload}.rep{i}.json").write_text(json.dumps(rec))
    table = {}
    for name, (unit, clock, better) in END_TO_END.items():
        table[name] = dict(summarise(taken["per_rep"][name]),
                           unit=unit, clock=clock, better=better,
                           bound=bounds.get(name, 0.0))
    rep = taken["records"][0]
    return {
        "why": why[workload],
        "attempted": taken["attempted"],
        "latency_samples": rep["latency_samples"],
        "sim_digest": taken["sim_digest"],
        "end_to_end": table,
        "heldout": heldout,
        "per_layer": traced["per_layer"],
        "trace": traced["trace"],
        "harness": dict(rep["harness"], submit_s=rep["submit_s"],
                        host_speed=[r["host_speed"]
                                    for r in taken["records"]]),
    }


def print_workload(name: str, row: Dict[str, Any]) -> None:
    print(f"\n== {name}: {row['attempted']} ops, "
          f"{row['latency_samples']} latency samples, digest "
          f"{row['sim_digest'][:16]}  ({row['why']})")
    held = row["heldout"]
    print(f"  {'end-to-end metric':<22}{'median':>14} {'unit':<6}"
          f"{'clock':<6}{'q1':>14}{'q3':>14}{'n':>3}{'spread':>9}"
          f"{'bound':>7}" + (f"   seed {held['seed']}" if held else ""))
    for metric, m in row["end_to_end"].items():
        print(f"  {metric:<22}{m['median']:>14.6g} {m['unit']:<6}"
              f"{m['clock']:<6}{m['q1']:>14.6g}{m['q3']:>14.6g}{m['n']:>3}"
              f"{m['spread']:>9.2%}{m['bound']:>7.0%}"
              + (f"   {held['end_to_end'][metric]:.6g}" if held else ""))
    trace = row["trace"]
    print(f"  traced run: root {trace['root_s']:.3f} s, overhead "
          f"{row['per_layer']['trace.overhead_x']:.2f}x, closure gap "
          f"{trace['closure_gap']:.2e}, {trace['spans']} spans, "
          f"{len(trace['absent'])} targets absent")
    for layer, v in sorted(trace["layers"].items(),
                           key=lambda kv: -kv[1]["self_s"]):
        if v["calls"]:
            print(f"    {layer + '.self_s':<34}{v['self_s']:>10.4f} s "
                  f"{v['share']:>7.1%}  {v['calls']:>9} spans")
    for metric, value in row["per_layer"].items():
        if not metric.endswith((".self_s", ".share")):
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"    {metric:<44}{shown:>14}")


def full_run(seed: int, quick: bool, scale: float, out: Path,
             ) -> Dict[str, Any]:
    out.mkdir(parents=True, exist_ok=True)
    contract = load_contract()
    result: Dict[str, Any] = {"claim": None, "seed": seed, "scale": scale,
                              "workloads": {}}
    for entry in contract["workloads"]:
        name = entry["name"]
        row = full_workload(name, seed, quick, scale, contract, out)
        result["workloads"][name] = row
        result["harness"] = row.pop("harness")
        print_workload(name, row)
    (out / "result.json").write_text(json.dumps(result, indent=1))
    print(f"\nharness: {result['harness']}  claim: null")
    print(f"result: {out / 'result.json'}")
    return result


# -- one measurement for a driver ---------------------------------------------
def driver_run(workload: str, seed: int, scale: float, trace: bool,
               ) -> Dict[str, Any]:
    contract = load_contract()
    # per-layer numbers need the untraced side only for trace.overhead_x
    taken = measure(workload, seed, scale, reps=1 if trace else REPS)
    if trace:
        values = traced_layers(workload, seed, scale, taken,
                               contract)["per_layer"]
        listed = contract["per_layer"]
    else:
        values = taken["values"]
        listed = contract["end_to_end"]
    return {"correct": True, "attempted": taken["attempted"],
            "failed": taken["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]] or 0.0,
                                    "unit": m["unit"]} for m in listed}}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="take one measurement of this "
                   "workload and print one JSON line")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, help="what the timed phases of "
                   "one measurement add up to on the reference host; sets "
                   "workload size (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="1/20 of the "
                   "reference size, one repetition, no held-out seed")
    p.add_argument("--out", type=Path, help="directory for result.json, "
                   "per-repetition records and traces (default: a temp dir)")
    p.add_argument("--aa", action="store_true", help="run the whole "
                   "benchmark twice and compare the two results")
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC}/repro not found: the benchmark measures the "
              f"checkout it sits in", file=sys.stderr)
        return 2
    seconds = args.seconds or load_contract()["run_seconds"]
    scale = (QUICK_SCALE if args.quick
             else seconds / (REFERENCE_SECONDS * REPS))
    try:
        if args.workload:
            print(json.dumps(driver_run(args.workload, args.seed, scale,
                                        bool(args.trace))))
            return 0
        out = args.out or Path(tempfile.mkdtemp(prefix="repro-e2e-"))
        if not args.aa:
            full_run(args.seed, args.quick, scale, out)
            return 0
        from compare import compare
        return compare(full_run(args.seed, args.quick, scale, out / "a"),
                       full_run(args.seed, args.quick, scale, out / "b"),
                       same_code=True)
    except BenchmarkError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
