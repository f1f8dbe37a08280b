"""Tests for the analytics layer: metrics, experiment drivers, reports."""

import numpy as np
import pytest

from repro.analytics import (
    EXP1_INSTANCE_COUNTS,
    REQUESTS_PER_CLIENT,
    STRONG_SCALING_GRID,
    WEAK_SCALING_GRID,
    ReportBuilder,
    dist_stats,
    format_seconds,
    render_table,
    response_metrics,
    run_experiment1,
    run_experiment2,
    run_experiment3,
    run_service_workload,
)


class TestPaperParameters:
    def test_exp1_grid_matches_paper(self):
        assert EXP1_INSTANCE_COUNTS == (1, 2, 4, 8, 20, 40, 80, 160, 320, 640)

    def test_scaling_grids_match_paper(self):
        assert STRONG_SCALING_GRID == ((16, 1), (16, 2), (16, 4), (16, 8),
                                       (16, 16))
        assert WEAK_SCALING_GRID == ((1, 1), (2, 2), (4, 4), (8, 8),
                                     (16, 16))

    def test_requests_per_client(self):
        assert REQUESTS_PER_CLIENT == 1024


class TestExperiment1:
    def test_bt_components_present(self):
        result = run_experiment1(4, seed=1)
        assert result.metrics.launch.size == 4
        assert result.metrics.init.size == 4
        assert result.metrics.publish.size == 4
        row = result.row()
        assert row["bt_mean_s"] == pytest.approx(
            row["launch_mean_s"] + row["init_mean_s"]
            + row["publish_mean_s"], rel=0.05)

    def test_deterministic_given_seed(self):
        a = run_experiment1(4, seed=9).row()
        b = run_experiment1(4, seed=9).row()
        assert a == b

    def test_different_seed_differs(self):
        a = run_experiment1(4, seed=1).row()
        b = run_experiment1(4, seed=2).row()
        assert a != b

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            run_experiment1(0)


class TestResponseMetrics:
    def test_no_successful_request_has_no_dominant_component(self):
        # a run where every request failed must not read as
        # "communication dominates"
        metrics = response_metrics([])
        assert metrics.n_requests == 0
        with pytest.raises(ValueError, match="no successful requests"):
            metrics.dominant_component()


class TestExperiment2and3:
    def test_exp2_local_communication_dominates(self):
        result = run_experiment2(2, 2, "local", n_requests=64, seed=1)
        assert result.metrics.dominant_component() == "communication"
        assert result.metrics.n_requests == 128

    def test_exp2_remote_slower_than_local(self):
        local = run_experiment2(2, 2, "local", n_requests=64, seed=1)
        remote = run_experiment2(2, 2, "remote", n_requests=64, seed=1)
        assert remote.metrics.rt_stats.mean > \
            3 * local.metrics.rt_stats.mean

    def test_exp3_inference_dominates_weak_scaling(self):
        result = run_experiment3(2, 2, "remote", n_requests=4, seed=1)
        means = result.metrics.component_means()
        assert means["inference"] > means["communication"] * 100

    def test_exp3_queueing_under_saturation(self):
        result = run_experiment3(8, 1, "remote", n_requests=4, seed=1)
        means = result.metrics.component_means()
        assert means["service"] > means["inference"]

    def test_invalid_deployment(self):
        with pytest.raises(ValueError):
            run_service_workload(1, 1, deployment="orbital")

    def test_heterogeneous_models(self):
        result = run_service_workload(
            2, 2, "remote", models=["noop", "noop"], n_requests=8, seed=1)
        assert result.metrics.n_requests == 16

    def test_models_length_validated(self):
        with pytest.raises(ValueError):
            run_service_workload(1, 2, "remote", models=["noop"])

    def test_per_client_results_kept(self):
        result = run_experiment2(3, 1, "local", n_requests=16, seed=1)
        assert len(result.per_client) == 3
        assert all(len(r) == 16 for r in result.per_client)


class TestReport:
    def test_format_seconds_scales(self):
        assert format_seconds(2.5) == "2.50 s"
        assert format_seconds(0.0025) == "2.500 ms"
        assert format_seconds(2.5e-6) == "2.5 µs"
        assert format_seconds(float("nan")) == "n/a"

    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.0], [10, 0.5]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len({len(l) for l in lines[2:]}) == 1  # rectangular

    def test_report_builder_sections(self):
        report = (ReportBuilder("X")
                  .add_table(["h"], [[1]])
                  .add_text("note")
                  .add_kv({"k": 1.0}, title="facts"))
        text = report.render()
        assert "X" in text and "note" in text and "facts" in text

    def test_dist_stats_empty(self):
        stats = dist_stats([])
        assert stats.n == 0
        assert np.isnan(stats.mean)


class TestReportEdgeCases:
    def test_render_table_without_title(self):
        out = render_table(["h1", "h2"], [["a", "b"]])
        lines = out.splitlines()
        assert len(lines) == 3  # header, separator, one row
        assert "h1" in lines[0]

    def test_render_table_no_rows(self):
        out = render_table(["only", "headers"], [])
        lines = out.splitlines()
        assert len(lines) == 2
        assert "-+-" in lines[1]

    def test_render_table_cell_formatting(self):
        # strings pass through, floats go through format_seconds, the
        # rest through str()
        out = render_table(["c"], [["raw"], [0.0025], [7], [None]])
        assert "raw" in out
        assert "2.500 ms" in out
        assert "7" in out and "None" in out

    def test_format_seconds_negative_values(self):
        assert format_seconds(-2.5) == "-2.50 s"
        assert format_seconds(-0.0025) == "-2.500 ms"

    def test_format_seconds_boundaries(self):
        assert format_seconds(1.0) == "1.00 s"
        assert format_seconds(1e-3) == "1.000 ms"
        assert format_seconds(0.0) == "0.0 µs"

    def test_add_kv_empty_mapping(self):
        text = ReportBuilder("T").add_kv({}).render()
        assert "# T" in text

    def test_add_kv_alignment_and_float_formatting(self):
        text = ReportBuilder("T").add_kv(
            {"a": 1, "long_key": 0.5}, title="facts").render()
        lines = text.splitlines()
        (a_line,) = [ln for ln in lines if ": 1" in ln]
        (f_line,) = [ln for ln in lines if "500.000 ms" in ln]
        assert a_line.index(":") == f_line.index(":")

    def test_builder_chaining_returns_self(self):
        rb = ReportBuilder("T")
        assert rb.add_text("x") is rb
        assert rb.add_table(["h"], []) is rb
        assert rb.add_kv({}) is rb

    def test_print_writes_rendered_report(self, capsys):
        ReportBuilder("T").add_text("body").print()
        out = capsys.readouterr().out
        assert "# T" in out and "body" in out


class TestCampaignMetricsEdgeCases:
    @staticmethod
    def _task(session, uid, t0=None, t1=None, cores=1, state="DONE"):
        from types import SimpleNamespace
        if t0 is not None:
            session.profiler.record(t0, uid, "exec_start", "agent")
        if t1 is not None:
            session.profiler.record(t1, uid, "exec_stop", "agent")
        return SimpleNamespace(uid=uid, state=state, n_cores=cores)

    def test_empty_groups(self):
        from repro import Session
        from repro.analytics import campaign_metrics
        with Session(seed=1) as session:
            m = campaign_metrics(session, {}, total_cores=8)
            assert (m.n_tasks, m.n_done, m.n_nodes) == (0, 0, 0)
            assert m.makespan_s == 0.0 and m.busy_core_s == 0.0
            assert np.isnan(m.idle_fraction)
            assert np.isnan(m.overlap_fraction)
            assert m.peak_concurrency == 0

    def test_single_task_group(self):
        from repro import Session
        from repro.analytics import campaign_metrics
        with Session(seed=1) as session:
            task = self._task(session, "t0", 0.0, 10.0, cores=4)
            m = campaign_metrics(session, {"g": [task]}, total_cores=8)
            assert (m.n_tasks, m.n_done, m.n_nodes) == (1, 1, 1)
            assert m.makespan_s == 10.0
            assert m.busy_core_s == pytest.approx(40.0)
            assert m.idle_fraction == pytest.approx(0.5)
            # one group can never overlap with itself
            assert m.overlap_fraction == 0.0
            assert m.peak_concurrency == 1 and m.peak_busy_cores == 4

    def test_tasks_without_exec_window_are_skipped(self):
        from repro import Session
        from repro.analytics import campaign_metrics
        with Session(seed=1) as session:
            ran = self._task(session, "t0", 0.0, 4.0)
            never = self._task(session, "t1", state="FAILED")
            partial = self._task(session, "t2", t0=1.0)  # no stop stamp
            m = campaign_metrics(session, {"g": [ran, never, partial]},
                                 total_cores=4)
            assert m.n_tasks == 3 and m.n_done == 2
            assert m.busy_core_s == pytest.approx(4.0)

    def test_all_tasks_skipped_yields_nan(self):
        from repro import Session
        from repro.analytics import campaign_metrics
        with Session(seed=1) as session:
            never = self._task(session, "t0", state="FAILED")
            m = campaign_metrics(session, {"g": [never]}, total_cores=4)
            assert m.n_tasks == 1 and m.n_done == 0
            assert np.isnan(m.idle_fraction)
            assert m.makespan_s == 0.0

    def test_makespan_idle_and_validation(self):
        from repro import Session
        from repro.analytics import campaign_metrics
        with Session(seed=1) as session:
            task = self._task(session, "t0", 0.0, 10.0)
            m = campaign_metrics(session, {"g": [task]}, total_cores=2)
            assert m.makespan_s == 10.0
            assert m.idle_fraction == pytest.approx(0.5)
            with pytest.raises(ValueError, match="total_cores"):
                campaign_metrics(session, {}, total_cores=0)

    def test_row_is_flat_and_readable(self):
        from repro import Session
        from repro.analytics import campaign_metrics
        with Session(seed=1) as session:
            task = self._task(session, "t0", 0.0, 3600.0)
            row = campaign_metrics(session, {"g": [task]},
                                   total_cores=2).row()
            assert row["tasks"] == "1/1"
            assert row["busy_core_h"] == pytest.approx(1.0)
            assert set(row) == {"makespan_s", "tasks", "busy_core_h",
                                "idle_frac", "overlap_frac", "peak_tasks"}
