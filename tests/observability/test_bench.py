"""Structured bench results, baseline aggregation, and the regression gate."""

import json
from pathlib import Path

import pytest

from repro.observability.bench import (
    BASELINE_PREFIX,
    RESULT_SUFFIX,
    BenchMetric,
    BenchResult,
    aggregate,
    compare,
    env_stamp,
    load_baseline,
    load_results,
    write_baselines,
)
from repro.observability.regress import main as regress_main


def result(name="bench_a", suite="suite_x", scale=1, **metrics):
    r = BenchResult(name=name, suite=suite,
                    env={**env_stamp(), "bench_scale": scale})
    for metric_name, kwargs in metrics.items():
        r.record(metric_name, **kwargs)
    return r


def docs(old_kwargs, new_kwargs, old_scale=1, new_scale=1):
    """A (old, new) baseline-document pair for one single-metric bench."""
    old = aggregate([result(scale=old_scale, m=old_kwargs)])["suite_x"]
    new = aggregate([result(scale=new_scale, m=new_kwargs)])["suite_x"]
    return old, new


class TestBenchMetric:
    def test_direction_validation(self):
        with pytest.raises(ValueError):
            BenchMetric("m", 1.0, direction="sideways")

    def test_round_trip(self):
        m = BenchMetric("m", 2.5, unit="x", direction="lower", floor=3.0,
                        scale_free=True, deterministic=False)
        again = BenchMetric.from_dict("m", m.to_dict())
        assert again == m

    def test_defaults_round_trip_compactly(self):
        m = BenchMetric("m", 1.0)
        assert m.to_dict() == {"value": 1.0, "direction": "higher"}

    def test_meets_floor_both_directions(self):
        higher = BenchMetric("m", 5.0, floor=2.0)
        assert higher.meets_floor() and not higher.meets_floor(1.0)
        lower = BenchMetric("m", 1.0, direction="lower", floor=2.0)
        assert lower.meets_floor() and not lower.meets_floor(3.0)
        assert BenchMetric("m", -1e9).meets_floor()  # no floor: always ok


class TestBenchResult:
    def test_record_and_round_trip(self, tmp_path):
        r = result(throughput={"value": 100.0, "floor": 50.0},
                   makespan={"value": 9.0, "direction": "lower"})
        path = r.write(tmp_path / f"bench_a{RESULT_SUFFIX}")
        again = BenchResult.from_dict(json.loads(path.read_text()))
        assert again == r

    def test_load_results_globs_and_sorts(self, tmp_path):
        result(name="b").write(tmp_path / f"b{RESULT_SUFFIX}")
        result(name="a").write(tmp_path / f"a{RESULT_SUFFIX}")
        (tmp_path / "unrelated.json").write_text("{}")
        assert [r.name for r in load_results(tmp_path)] == ["a", "b"]

    def test_env_stamp_reads_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "4")
        assert env_stamp()["bench_scale"] == 4


class TestAggregation:
    def test_one_doc_per_suite(self, tmp_path):
        results = [result(name="a", suite="s1", m={"value": 1.0}),
                   result(name="b", suite="s1", m={"value": 2.0}),
                   result(name="c", suite="s2", m={"value": 3.0})]
        paths = write_baselines(results, tmp_path)
        assert [p.name for p in paths] == [f"{BASELINE_PREFIX}s1.json",
                                           f"{BASELINE_PREFIX}s2.json"]
        doc = load_baseline(paths[0])
        assert set(doc["benchmarks"]) == {"a", "b"}
        assert doc["suite"] == "s1" and doc["version"] == 1


class TestCompare:
    def test_identical_is_clean(self):
        old, new = docs({"value": 10.0}, {"value": 10.0})
        regressions, _ = compare(old, new)
        assert regressions == []

    def test_drift_down_on_higher_is_better(self):
        old, new = docs({"value": 100.0}, {"value": 80.0})
        (r,) = compare(old, new, tolerance=0.15)[0]
        assert r.kind == "drift" and r.new == 80.0

    def test_drift_up_on_lower_is_better(self):
        old, new = docs({"value": 10.0, "direction": "lower"},
                        {"value": 12.0, "direction": "lower"})
        (r,) = compare(old, new, tolerance=0.15)[0]
        assert r.kind == "drift"

    def test_improvement_and_within_tolerance_pass(self):
        old, new = docs({"value": 100.0}, {"value": 150.0})
        assert compare(old, new)[0] == []
        old, new = docs({"value": 100.0}, {"value": 90.0})
        assert compare(old, new, tolerance=0.15)[0] == []

    def test_floor_violation_beats_drift(self):
        old, new = docs({"value": 100.0, "floor": 95.0}, {"value": 90.0})
        (r,) = compare(old, new)[0]
        assert r.kind == "floor"

    def test_non_deterministic_is_floor_gated_only(self):
        kwargs = {"deterministic": False, "floor": 50.0}
        old, new = docs({"value": 100.0, **kwargs},
                        {"value": 60.0, **kwargs})
        assert compare(old, new)[0] == []  # 40% drop, but above the floor
        old, new = docs({"value": 100.0, **kwargs},
                        {"value": 40.0, **kwargs})
        (r,) = compare(old, new)[0]
        assert r.kind == "floor"

    def test_missing_metric_is_a_regression(self):
        old = aggregate([result(m={"value": 1.0},
                                kept={"value": 2.0})])["suite_x"]
        new = aggregate([result(kept={"value": 2.0})])["suite_x"]
        (r,) = compare(old, new)[0]
        assert r.kind == "missing" and r.metric == "m"

    def test_missing_benchmark_is_a_note(self):
        old = aggregate([result(name="a", m={"value": 1.0}),
                         result(name="b", m={"value": 1.0})])["suite_x"]
        new = aggregate([result(name="a", m={"value": 1.0})])["suite_x"]
        regressions, notes = compare(old, new)
        assert regressions == []
        assert any("absent from the new run" in n for n in notes)

    def test_scale_mismatch_skips_non_scale_free(self):
        old, new = docs({"value": 100.0}, {"value": 1.0},
                        old_scale=1, new_scale=4)
        regressions, notes = compare(old, new)
        assert regressions == []
        assert any("scale mismatch" in n for n in notes)

    def test_scale_mismatch_still_gates_scale_free_floors(self):
        kwargs = {"scale_free": True, "floor": 2.0}
        old, new = docs({"value": 3.0, **kwargs}, {"value": 1.0, **kwargs},
                        old_scale=1, new_scale=4)
        (r,) = compare(old, new)[0]
        assert r.kind == "floor"

    def test_scale_mismatch_never_drift_gates(self):
        # scale-free marks the *floor* scale-invariant, not the value
        kwargs = {"scale_free": True, "floor": 2.0}
        old, new = docs({"value": 100.0, **kwargs},
                        {"value": 3.0, **kwargs},
                        old_scale=1, new_scale=4)
        assert compare(old, new)[0] == []


class TestRegressCli:
    def _write_pair(self, tmp_path, old_value, new_value, floor=None):
        kwargs = {"floor": floor} if floor is not None else {}
        old, new = docs({"value": old_value, **kwargs},
                        {"value": new_value, **kwargs})
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(new))
        return str(old_path), str(new_path)

    def test_clean_compare_exits_zero(self, tmp_path, capsys):
        old, new = self._write_pair(tmp_path, 10.0, 10.0)
        assert regress_main([old, new]) == 0
        assert "regress: ok" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        old, new = self._write_pair(tmp_path, 100.0, 50.0)
        assert regress_main([old, new]) == 1
        assert "REGRESSION [drift]" in capsys.readouterr().out

    def test_doctored_floor_exits_nonzero(self, tmp_path, capsys):
        # the acceptance scenario: a baseline demanding 2x the measured
        # value must fail the gate
        old, new = self._write_pair(tmp_path, 100.0, 100.0, floor=200.0)
        assert regress_main([old, new]) == 1
        assert "REGRESSION [floor]" in capsys.readouterr().out

    @pytest.mark.parametrize("name", [
        "profile_records_per_task", "spans_per_task",
        "metric_samples_per_task", "kernel_entries_per_task"])
    def test_a_doctored_observability_count_exits_nonzero(
            self, tmp_path, capsys, name):
        # the full plane's counted work per task, against its baseline
        baseline = Path(__file__).resolve().parents[2] \
            / "BENCH_ablation_observability.json"
        doc = json.loads(baseline.read_text())
        metric = doc["benchmarks"]["test_observability_overhead"][
            "metrics"][name]
        assert metric.get("deterministic", True)
        metric["value"] *= 1.2
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(doc))
        assert regress_main([str(baseline), str(baseline)]) == 0
        assert regress_main([str(baseline), str(doctored)]) == 1
        assert f"REGRESSION [drift] test_observability_overhead.{name}" \
            in capsys.readouterr().out

    def test_tolerance_flag(self, tmp_path):
        old, new = self._write_pair(tmp_path, 100.0, 80.0)
        assert regress_main([old, new, "--tolerance", "0.25"]) == 0
        assert regress_main([old, new, "--tolerance", "0.10"]) == 1

    def test_aggregate_mode(self, tmp_path, capsys):
        results_dir = tmp_path / "results"
        results_dir.mkdir()
        result(m={"value": 1.0}).write(
            results_dir / f"bench_a{RESULT_SUFFIX}")
        out_dir = tmp_path / "out"
        assert regress_main(["--aggregate", str(results_dir),
                             "--out-dir", str(out_dir)]) == 0
        assert "wrote" in capsys.readouterr().out
        baseline = out_dir / f"{BASELINE_PREFIX}suite_x.json"
        assert load_baseline(baseline)["suite"] == "suite_x"

    def test_aggregate_empty_dir_exits_two(self, tmp_path):
        assert regress_main(["--aggregate", str(tmp_path)]) == 2
