#!/usr/bin/env python3
"""Compare two results of run.py: ``compare.py OLD.json NEW.json``.

One row per (workload, end-to-end metric), each judged by the metric's own
direction and bound (taken from OLD):

* ``regression`` -- NEW's median is worse than OLD's by more than the bound;
* ``unresolved`` -- the medians agree within the bound, but the run-to-run
  spread (IQR / median) of either side is wider than the bound, so the runs
  cannot tell "unchanged" from "changed" -- unless every NEW repetition beats
  every OLD one, which counts as ``improved``;
* ``improved`` / ``unchanged`` -- otherwise, by whether NEW is better by
  more than the bound.

Simulated metrics and ``sim_digest`` repeat exactly for the same seed, size
and code, so they are compared exactly: any difference prints ``changed`` (a
pure simulator speed-up must not cause one).  Between two results of the
same seed and size a simulated metric is a regression when worse by more
than 1 %; between different seeds or sizes, where it legitimately moves, by
more than its cross-seed bound from ``BENCHMARK.json``.  ``run.py --aa``
compares two runs of the *same code*: there any difference in a simulated
metric or in the digest is a failure.  Exit status is non-zero on any
regression or on a higher ``failed_ops_share``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple


#: bound on a simulated metric between two results of the same seed and size
SAME_INPUTS_SIM_BOUND = 0.01


def worse_by(old: float, new: float, better: str) -> float:
    """Relative change of *new* against *old*, positive = worse."""
    if old == 0:
        return 0.0 if new == old else float("inf") * (1 if new > old else -1)
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def all_better(old: List[float], new: List[float], better: str) -> bool:
    return (max(new) < min(old)) if better == "lower" \
        else (min(new) > max(old))


def judge(metric: str, old: Dict[str, Any], new: Dict[str, Any],
          same_inputs: bool, same_code: bool) -> Tuple[str, float, float]:
    """``(verdict, worse-by, bound applied)`` for one (workload, metric)."""
    better, bound = old["better"], old["bound"]
    delta = worse_by(old["median"], new["median"], better)
    if metric == "failed_ops_share":
        return ("regression" if new["median"] > old["median"]
                else "unchanged"), delta, bound
    if old["clock"] == "sim":
        if same_inputs:
            bound = SAME_INPUTS_SIM_BOUND
        if new["median"] == old["median"]:
            return "identical", delta, bound
        worse = same_code or delta > bound
        return ("regression" if worse else "changed"), delta, bound
    if delta > bound:
        return "regression", delta, bound
    if max(old["spread"], new["spread"]) > bound:
        if all_better(old["values"], new["values"], better):
            return "improved", delta, bound
        return "unresolved", delta, bound
    return ("improved" if delta < -bound else "unchanged"), delta, bound


def compare(old: Dict[str, Any], new: Dict[str, Any],
            same_code: bool = False) -> int:
    """Print the comparison table; returns the process exit status.

    *same_code* says both results come from one commit (``run.py --aa``).
    """
    same_inputs = (old["seed"], old["scale"]) == (new["seed"], new["scale"])
    if not same_inputs:
        print(f"note: seeds/sizes differ ({old['seed']}/{old['scale']} vs "
              f"{new['seed']}/{new['scale']}): simulated metrics cannot "
              f"match exactly and are held to their cross-seed bounds")
    print(f"{'workload':<22}{'metric':<20}{'old':>14}{'new':>14}"
          f"{'worse by':>10}{'bound':>7}  verdict")
    failed = 0
    for workload, old_row in old["workloads"].items():
        new_row = new["workloads"].get(workload)
        if new_row is None:
            print(f"{workload:<22}missing from NEW  regression")
            failed += 1
            continue
        for metric, old_m in old_row["end_to_end"].items():
            verdict, delta, bound = judge(
                metric, old_m, new_row["end_to_end"][metric],
                same_inputs, same_code)
            failed += verdict == "regression"
            print(f"{workload:<22}{metric:<20}{old_m['median']:>14.6g}"
                  f"{new_row['end_to_end'][metric]['median']:>14.6g}"
                  f"{delta:>+10.2%}{bound:>7.0%}  {verdict}")
        if old_row["sim_digest"] == new_row["sim_digest"]:
            verdict = "identical"
        else:
            verdict = "regression" if same_code else "changed"
            failed += same_code
        print(f"{workload:<22}{'sim_digest':<20}"
              f"{old_row['sim_digest'][:12]:>14}"
              f"{new_row['sim_digest'][:12]:>14}{'':>17}  {verdict}")
    print(f"\n{failed} regression(s)")
    return 1 if failed else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    results = []
    for path in argv:
        with open(path) as fh:
            results.append(json.load(fh))
    return compare(*results)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
