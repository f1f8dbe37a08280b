"""Smoke test of the benchmark of record: ``run.py --quick`` end to end.

One quick run (1/20 size, one repetition) is shared by the assertions:
every workload and metric named in ``BENCHMARK.json`` shows up with the
declared unit, nothing fails, the trace closes, and ``compare.py`` turns a
doctored result into a non-zero exit.  The doctored ``ops_per_s`` is worse
by the metric's bound plus 10 points, whatever the bound is (README.md,
"End-to-end metrics").
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: what ``run.py --quick`` may take; about 12 s on the reference host
QUICK_BUDGET_S = 20


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=QUICK_BUDGET_S)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return out, json.loads((out / "result.json").read_text()), proc.stdout


def test_contract_metrics_and_workloads_are_reported(quick):
    _, result, stdout = quick
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["claim"] is None
    assert result["harness"]["threads"] == 1
    for workload in contract["workloads"]:
        row = result["workloads"][workload["name"]]
        assert workload["name"] in stdout
        for metric in contract["end_to_end"]:
            reported = row["end_to_end"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert reported["bound"] == metric["bound"]
            assert reported["median"] > 0
            assert metric["name"] in stdout
        for metric in contract["per_layer"]:
            assert metric["name"] in row["per_layer"], metric["name"]
        assert row["end_to_end"]["failed_ops_share"]["median"] == 0
        assert row["per_layer"]["trace.closure_gap"] <= 0.02
        assert row["per_layer"]["trace.overhead_x"] > 0


def test_layers_show_up_where_the_workloads_use_them(quick):
    _, result, _ = quick
    layers = {name: row["trace"]["layers"]
              for name, row in result["workloads"].items()}
    assert layers["task_bag"]["pilot.agent.scheduler"]["self_s"] > 0
    assert max(layers["service_noop"],
               key=lambda k: layers["service_noop"][k]["self_s"]) \
        == "sim.engine"
    for name, rows in layers.items():
        seen = rows.get("observability", {}).get("self_s", 0.0) > 0
        assert seen == (name == "resilient_traced_bag"), name
        for layer in ("data", "workflows.campaign"):
            seen = rows.get(layer, {}).get("self_s", 0.0) > 0
            assert seen == (name == "hybrid_campaign"), (name, layer)


def test_chrome_trace_is_written(quick):
    out, result, _ = quick
    for name, row in result["workloads"].items():
        events = json.loads(
            (out / f"{name}.trace.json").read_text())["traceEvents"]
        assert len(events) == row["trace"]["chrome_events"] > 0
        assert {"name", "cat", "ph", "ts", "dur", "args"} <= set(events[0])


def test_compare_flags_a_doctored_result(quick, tmp_path):
    out, result, _ = quick
    doctored = copy.deepcopy(result)
    ops = doctored["workloads"]["task_bag"]["end_to_end"]["ops_per_s"]
    slower = 1.0 - ops["bound"] - 0.1
    ops["median"] *= slower
    ops["values"] = [v * slower for v in ops["values"]]
    worse = tmp_path / "doctored.json"
    worse.write_text(json.dumps(doctored))
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(compare + [str(out / "result.json")] * 2,
                          capture_output=True, text=True)
    assert same.returncode == 0, same.stdout
    bad = subprocess.run(compare + [str(out / "result.json"), str(worse)],
                         capture_output=True, text=True)
    assert bad.returncode != 0
    assert "regression" in bad.stdout


def test_compare_holds_same_seed_sim_metrics_to_one_percent(quick, tmp_path):
    out, result, _ = quick
    doctored = copy.deepcopy(result)
    row = doctored["workloads"]["service_noop"]
    span = row["end_to_end"]["sim_makespan_s"]
    span["median"] *= 1.02
    span["values"] = [v * 1.02 for v in span["values"]]
    worse = tmp_path / "sim.json"
    worse.write_text(json.dumps(doctored))
    bad = subprocess.run(
        [sys.executable, str(HERE / "compare.py"),
         str(out / "result.json"), str(worse)],
        capture_output=True, text=True)
    assert bad.returncode != 0, bad.stdout

    sys.path.insert(0, str(HERE))
    try:
        from compare import compare
    finally:
        sys.path.remove(str(HERE))
    row["end_to_end"]["sim_makespan_s"] = copy.deepcopy(
        result["workloads"]["service_noop"]["end_to_end"]["sim_makespan_s"])
    assert compare(result, doctored, same_code=True) == 0
    row["sim_digest"] = "0" * 64
    assert compare(result, doctored) == 0  # another commit may change it
    assert compare(result, doctored, same_code=True) == 1  # --aa may not
