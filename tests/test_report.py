"""Report tests: percentiles, aggregation, recomputed finalizer rows."""

import json
import os

import pytest

from repro.experiments import get_experiment
from repro.results import RunStore, load_run
from repro.results.report import (ReportError, build_report, percentile,
                                  render_report_text)

E2_PARAMS = {"ns": (12, 16), "trials": 1, "max_windows": 200000,
             "use_resets": True, "seed": 9}


def _run(tmp_path, name, params):
    experiment = get_experiment(name)
    resolved = experiment.resolve_params(params)
    store = RunStore.open(str(tmp_path), name, resolved, workers=0)
    experiment.run(params=resolved, store=store)
    store.finish(wall_time=0.1)
    return store


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self):
        values = [15.0, 20.0, 35.0, 40.0, 50.0]
        assert percentile(values, 0) == 15.0
        assert percentile(values, 50) == 35.0
        assert percentile(values, 100) == 50.0
        assert percentile(values, 40) == pytest.approx(29.0)
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([7.0], 90) == 7.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], 101)


class TestBuildReport:
    def test_aggregates_across_seeds(self, tmp_path):
        for seed in (1, 2):
            _run(tmp_path, "E8",
                 {"cs": (0.1,), "ns": (50,), "seed": seed})
        report = build_report(str(tmp_path), "E8")
        assert report.experiment == "E8"
        assert len(report.runs) == 2
        assert all(run["completed"] and run["rows"] == 4
                   for run in report.runs)
        by_cell = {(entry["cell"], entry["metric"]): entry
                   for entry in report.cells}
        curve_cell = json.dumps(["E8", 0.1, 50])
        entry = by_cell[(curve_cell, "success_probability")]
        assert entry["count"] == 2
        assert entry["min"] <= entry["p50"] <= entry["max"]
        # With two samples, p50 is their midpoint (linear interpolation).
        assert entry["p50"] == pytest.approx(
            (entry["min"] + entry["max"]) / 2)

    def test_finalizer_rows_match_the_stored_run(self, tmp_path):
        store = _run(tmp_path, "E2", E2_PARAMS)
        report = build_report(str(tmp_path), "E2")
        experiment = get_experiment("E2")
        manifest, rows = load_run(store.path)
        assert report.finalizers == \
            experiment.finalize(rows, manifest["params"])
        assert report.finalizers  # E2 stores none, recomputes the fit

    def test_finalizers_skip_a_fresher_partial_run(self, tmp_path):
        store = _run(tmp_path, "E2", E2_PARAMS)
        experiment = get_experiment("E2")
        partial = RunStore.open(
            str(tmp_path), "E2",
            experiment.resolve_params(dict(E2_PARAMS, seed=10)))
        later = os.path.getmtime(os.path.join(store.path,
                                              "manifest.json")) + 10
        os.utime(os.path.join(partial.path, "manifest.json"),
                 (later, later))
        report = build_report(str(tmp_path), "E2")
        assert [run["completed"] for run in report.runs] == [False, True]
        manifest, rows = load_run(store.path)
        assert report.finalizers == \
            experiment.finalize(rows, manifest["params"])

    def test_reads_each_run_once(self, tmp_path, monkeypatch):
        from repro.results import store as store_module

        _run(tmp_path, "E2", E2_PARAMS)
        _run(tmp_path, "E2", dict(E2_PARAMS, seed=10))
        reads = []

        def counted(name):
            real = getattr(store_module, name)

            def read(path):
                reads.append(path)
                return real(path)
            monkeypatch.setattr(store_module, name, read)

        counted("read_manifest")
        counted("read_jsonl_records")
        report = build_report(str(tmp_path), "E2")
        assert report.finalizers
        assert len(reads) == 2 * len(report.runs) == 4
        assert len(set(reads)) == len(reads)

    def test_run_summary_fields(self, tmp_path):
        store = _run(tmp_path, "E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        [run] = build_report(str(tmp_path), "E8").runs
        assert run == {"run_id": os.path.basename(store.path), "seed": 1,
                       "completed": True, "rows": 4,
                       "backend": store.manifest["backend"],
                       "wall_time_seconds": 0.1, "health_failures": 0}

    def test_resumed_run_reports_like_an_uninterrupted_one(self, tmp_path):
        experiment = get_experiment("E2")
        params = experiment.resolve_params(E2_PARAMS)
        _run(tmp_path / "whole", "E2", E2_PARAMS)
        root = tmp_path / "resumed"
        killed = RunStore.open(str(root), "E2", params, workers=0)
        rows = experiment.run(params=params, workers=0, store=killed)
        stored = killed.row_count
        # Drop the last stored row, as a kill before its write would.
        rows_path = os.path.join(killed.path, "rows.jsonl")
        lines = open(rows_path).readlines()
        with open(rows_path, "w") as handle:
            handle.writelines(lines[:-1])
        resumed = RunStore.open(str(root), "E2", params, workers=0)
        assert resumed.row_count == stored - 1
        assert experiment.run(params=params, workers=0,
                              store=resumed) == rows
        resumed.finish(wall_time=0.1)
        whole = build_report(str(tmp_path / "whole"), "E2")
        again = build_report(str(root), "E2")
        assert again.cells == whole.cells
        assert again.finalizers == whole.finalizers

    def test_custom_percentiles(self, tmp_path):
        _run(tmp_path, "E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        report = build_report(str(tmp_path), "E8",
                              percentiles=(25.0, 75.0))
        assert report.percentiles == (25.0, 75.0)
        assert {"p25", "p75"} <= set(report.cells[0])
        assert "p50" not in report.cells[0]

    def test_no_runs_is_a_report_error(self, tmp_path):
        with pytest.raises(ReportError, match="no stored runs"):
            build_report(str(tmp_path), "E8")

    def test_bad_percentile_is_a_report_error(self, tmp_path):
        _run(tmp_path, "E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        with pytest.raises(ReportError, match="outside"):
            build_report(str(tmp_path), "E8", percentiles=(150.0,))

    def test_unregistered_experiment_reports_without_finalizers(
            self, tmp_path):
        store = _run(tmp_path, "E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        manifest = store.manifest
        manifest["experiment"] = "campaign-x"
        target = tmp_path / "campaign-x" / "deadbeef0000"
        target.mkdir(parents=True)
        (target / "manifest.json").write_text(
            json.dumps(manifest, allow_nan=False))
        (target / "rows.jsonl").write_text(
            open(store.path + "/rows.jsonl").read())
        report = build_report(str(tmp_path), "campaign-x")
        assert report.experiment == "campaign-x"
        assert report.finalizers == []
        assert report.cells


class TestRendering:
    def test_text_rendering_has_all_sections(self, tmp_path):
        _run(tmp_path, "E2", E2_PARAMS)
        report = build_report(str(tmp_path), "E2")
        text = render_report_text(report)
        assert "== report: E2" in text
        assert "-- runs --" in text
        assert "-- per-cell percentiles --" in text
        assert "recomputed finalizer rows" in text

    def test_json_rendering_round_trips(self, tmp_path):
        _run(tmp_path, "E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        report = build_report(str(tmp_path), "E8")
        payload = json.loads(report.as_json())
        assert payload["experiment"] == "E8"
        assert payload["percentiles"] == [50.0, 90.0, 99.0]
        assert len(payload["runs"]) == 1
        assert payload["cells"]


class TestReportCLI:
    def test_report_text_and_json(self, tmp_path, capsys):
        from repro.cli import main

        _run(tmp_path, "E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        assert main(["report", "E8", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== report: E8" in out
        assert main(["report", "E8", "--out", str(tmp_path),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "E8"

    def test_report_without_runs_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", "E8", "--out", str(tmp_path)]) == 1
        assert "no stored runs" in capsys.readouterr().err

    def test_report_bad_percentiles_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", "E8", "--out", str(tmp_path),
                     "--percentiles", "fifty"]) == 2
        assert "percentiles" in capsys.readouterr().err
