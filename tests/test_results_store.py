"""Results-store tests: manifest, streaming rows, and kill/resume."""

import json
import os
import shutil

import pytest

import repro.experiments.base as base
from repro.experiments import get_experiment
from repro.results import (RunStore, latest_run, list_runs, load_run,
                           params_digest, read_manifest, run_directory)
from repro.results.store import (NonFiniteRowError, parse_record_line,
                                 read_jsonl_records, records_to_rows,
                                 scan_runs)
from repro.telemetry import Telemetry

E2_PARAMS = {"ns": (12, 16), "trials": 1, "max_windows": 200000,
             "use_resets": True, "seed": 9}

#: A two-row E2 store written by the release that also kept a
#: ``rows.columns.json`` copy of every run (and a ``columnar`` manifest
#: block), with that release's ``repro query``/``repro report`` outputs
#: over it in ``expected.json``.
LEGACY_STORE = os.path.join(os.path.dirname(__file__), "legacy_store")


def _resolved(name, params):
    return get_experiment(name).resolve_params(params)


class TestManifest:
    def test_manifest_fields(self, tmp_path):
        experiment = get_experiment("E8")
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 3})
        store = RunStore.open(str(tmp_path), "E8", params, workers=0)
        experiment.run(params=params, store=store)
        store.finish(wall_time=1.25)
        manifest = store.manifest
        assert manifest["experiment"] == "E8"
        assert manifest["seed"] == 3
        assert manifest["workers"] == 0
        assert manifest["completed"] is True
        assert manifest["wall_time_seconds"] == 1.25
        assert manifest["row_count"] == 4  # 1 curve + 3 talagrand cells
        assert manifest["package_version"]
        assert manifest["params"]["cs"] == [0.1]

    def test_run_directory_is_content_addressed(self, tmp_path):
        params = _resolved("E8", {"seed": 3})
        path = run_directory(str(tmp_path), "E8", params)
        assert path == os.path.join(
            str(tmp_path), "E8", params_digest("E8", params))
        # Same config -> same digest; different seed -> different digest.
        assert params_digest("E8", params) == params_digest("E8", params)
        other = dict(params, seed=4)
        assert params_digest("E8", params) != params_digest("E8", other)


class TestStreamingAndLoad:
    def test_rows_stream_as_jsonl(self, tmp_path):
        experiment = get_experiment("E3")
        params = _resolved("E3", {"ns": (8,), "samples": 2,
                                  "separation_trials": 2, "seed": 7})
        store = RunStore.open(str(tmp_path), "E3", params)
        rows = experiment.run(params=params, store=store)
        store.finish(wall_time=0.1)
        lines = [json.loads(line) for line in
                 open(os.path.join(store.path, "rows.jsonl"))]
        assert [line["row"] for line in lines] == rows
        manifest, loaded = load_run(store.path)
        assert loaded == rows
        assert manifest["completed"]

    def test_list_and_latest_runs(self, tmp_path):
        experiment = get_experiment("E8")
        for seed in (1, 2):
            params = _resolved("E8", {"cs": (0.1,), "ns": (50,),
                                      "seed": seed})
            store = RunStore.open(str(tmp_path), "E8", params)
            experiment.run(params=params, store=store)
            store.finish(wall_time=0.0)
        runs = list_runs(str(tmp_path))
        assert len(runs) == 2
        assert latest_run(str(tmp_path), "E8") == runs[0]
        assert latest_run(str(tmp_path), "E1") is None

    def test_list_runs_breaks_mtime_ties_by_digest(self, tmp_path):
        # Filesystem mtimes are coarse enough for back-to-back runs to
        # tie; the order must then come from the digest, not from
        # directory-listing accidents.
        experiment = get_experiment("E8")
        paths = []
        for seed in (1, 2, 3):
            params = _resolved("E8", {"cs": (0.1,), "ns": (50,),
                                      "seed": seed})
            store = RunStore.open(str(tmp_path), "E8", params)
            experiment.run(params=params, store=store)
            store.finish(wall_time=0.0)
            paths.append(store.path)
        stamp = os.path.getmtime(os.path.join(paths[0], "manifest.json"))
        for path in paths:
            os.utime(os.path.join(path, "manifest.json"), (stamp, stamp))
        assert list_runs(str(tmp_path)) == sorted(
            paths, key=os.path.basename, reverse=True)

    def test_latest_run_prefers_completed_over_fresher_partial(
            self, tmp_path):
        experiment = get_experiment("E8")
        done = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        store = RunStore.open(str(tmp_path), "E8", done)
        experiment.run(params=done, store=store)
        store.finish(wall_time=0.0)
        # An interrupted rerun opens (touching its manifest) but never
        # finishes; `show E8` must still find the completed run.
        partial = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 2})
        RunStore.open(str(tmp_path), "E8", partial)
        assert latest_run(str(tmp_path), "E8") == store.path


class _KillAfter(RunStore):
    """A store that dies (like SIGKILL mid-run) after N row writes."""

    def __init__(self, *args, kill_after: int, **kwargs):
        super().__init__(*args, **kwargs)
        self._writes_left = kill_after

    def write_row(self, index, key, row):
        if self._writes_left == 0:
            raise KeyboardInterrupt("killed mid-run")
        self._writes_left -= 1
        super().write_row(index, key, row)


class TestResume:
    def test_kill_midrun_then_resume_no_duplicates_identical_table(
            self, tmp_path, monkeypatch):
        experiment = get_experiment("E2")
        params = _resolved("E2", E2_PARAMS)
        reference = experiment.run(params=params, workers=0)

        path = run_directory(str(tmp_path), "E2", params)
        killed = _KillAfter(path, "E2", params, kill_after=1)
        with pytest.raises(KeyboardInterrupt):
            experiment.run(params=params, workers=0, store=killed)
        assert not killed.manifest["completed"]
        assert killed.row_count == 1

        # Rerun: the surviving cell must not recompute.  Count the trials
        # that are submitted for execution on resume.
        executed = []
        real_iter_trials = base.iter_trials

        def counting_iter_trials(specs, workers=None, **kwargs):
            specs = list(specs)
            executed.extend(specs)
            return real_iter_trials(specs, workers=workers, **kwargs)

        monkeypatch.setattr(base, "iter_trials", counting_iter_trials)
        resumed_store = RunStore.open(str(tmp_path), "E2", params,
                                      workers=0)
        rows = experiment.run(params=params, workers=0,
                              store=resumed_store)
        resumed_store.finish(wall_time=0.5)

        cells = experiment.cells(params=params)
        assert len(executed) == len(cells[1].specs)  # only the killed cell
        assert rows == reference  # identical final table, fit row included

        # No duplicate rows in the JSONL, and a second rerun executes
        # nothing at all.
        lines = [json.loads(line) for line in
                 open(os.path.join(path, "rows.jsonl"))]
        keys = [json.dumps(line["key"]) for line in lines]
        assert len(keys) == len(set(keys)) == len(cells)
        executed.clear()
        rerun_store = RunStore.open(str(tmp_path), "E2", params, workers=0)
        assert experiment.run(params=params, workers=0,
                              store=rerun_store) == reference
        assert executed == []

    def test_batched_rows_stream_per_cell_and_resume_mid_batch(
            self, tmp_path, monkeypatch):
        """A batched run writes each row when its cell's groups finish,
        so a kill mid-run loses only the cells still in flight."""
        from repro.batched import group_specs
        from repro.batched.engine import BatchedWindowEngine

        experiment = get_experiment("E2")
        params = experiment.resolve_params(None, quick=True)
        specs = [spec for cell in experiment.cells(params=params)
                 for spec in cell.specs]
        groups = len(group_specs(specs).groups)
        assert groups > 1

        engine_runs = []
        real_run = BatchedWindowEngine.run

        def counting_run(engine):
            engine_runs.append(len(engine.specs))
            return real_run(engine)

        runs_at_write = []
        real_write = RunStore.write_row

        def killing_write(store, index, key, row):
            runs_at_write.append(len(engine_runs))
            if len(runs_at_write) == 2:
                raise KeyboardInterrupt("killed mid-batch")
            real_write(store, index, key, row)

        monkeypatch.setattr(BatchedWindowEngine, "run", counting_run)
        monkeypatch.setattr(RunStore, "write_row", killing_write)
        killed = RunStore.open(str(tmp_path / "killed"), "E2", params,
                               workers=0)
        with pytest.raises(KeyboardInterrupt):
            experiment.run(params=params, workers=0, store=killed,
                           backend="batched")
        assert runs_at_write[0] < groups

        monkeypatch.setattr(RunStore, "write_row", real_write)
        resumed = RunStore.open(str(tmp_path / "killed"), "E2", params,
                                workers=0)
        experiment.run(params=params, workers=0, store=resumed,
                       backend="batched")
        resumed.finish(wall_time=0.1)
        whole = RunStore.open(str(tmp_path / "whole"), "E2", params,
                              workers=0)
        experiment.run(params=params, workers=0, store=whole)
        whole.finish(wall_time=0.1)
        assert load_run(resumed.path)[1] == load_run(whole.path)[1]

    def test_resume_sees_rows_written_after_finish(self, tmp_path):
        # Rows appended after finish() must feed the next resume, or
        # those cells would recompute.
        experiment = get_experiment("E8")
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        store = RunStore.open(str(tmp_path), "E8", params)
        experiment.run(params=params, store=store)
        store.finish(wall_time=0.1)
        store.write_row(99, ["extra-cell"], {"n": 1})
        reopened = RunStore.open(str(tmp_path), "E8", params)
        assert reopened.row_count == store.row_count
        assert "extra-cell" in str(reopened.completed_rows())

    def test_torn_final_line_is_ignored(self, tmp_path):
        experiment = get_experiment("E8")
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        store = RunStore.open(str(tmp_path), "E8", params)
        rows = experiment.run(params=params, store=store)
        rows_path = os.path.join(store.path, "rows.jsonl")
        with open(rows_path, "a") as handle:
            handle.write('{"index": 99, "key": ["torn"')  # no newline
        reopened = RunStore.open(str(tmp_path), "E8", params)
        assert reopened.rows() == rows
        # And the resumed run completes the table without the torn cell.
        assert experiment.run(params=params, store=reopened) == rows

    def test_kill_resume_reads_back_bit_identical(self, tmp_path):
        """kill -> resume -> finish stores exactly the uninterrupted run."""
        experiment = get_experiment("E2")
        params = _resolved("E2", E2_PARAMS)
        whole = RunStore.open(str(tmp_path / "whole"), "E2", params,
                              workers=0)
        experiment.run(params=params, workers=0, store=whole)
        whole.finish(wall_time=0.1)

        root = str(tmp_path / "resumed")
        killed = _KillAfter(run_directory(root, "E2", params), "E2",
                            params, kill_after=1)
        with pytest.raises(KeyboardInterrupt):
            experiment.run(params=params, workers=0, store=killed)
        resumed = RunStore.open(root, "E2", params, workers=0)
        experiment.run(params=params, workers=0, store=resumed)
        resumed.finish(wall_time=0.2)

        def rows_bytes(store):
            with open(os.path.join(store.path, "rows.jsonl"), "rb") as fh:
                return fh.read()

        assert rows_bytes(resumed) == rows_bytes(whole)
        assert load_run(resumed.path)[1] == load_run(whole.path)[1] \
            == resumed.rows()


class TestJsonlReader:
    def _write(self, tmp_path, lines):
        rows_path = str(tmp_path / "rows.jsonl")
        with open(rows_path, "w") as handle:
            handle.writelines(lines)
        return rows_path

    def test_nan_line_raises_instead_of_dropping(self, tmp_path):
        rows_path = self._write(
            tmp_path, ['{"index": 0, "key": ["a"], "row": {"x": NaN}}\n'])
        with pytest.raises(NonFiniteRowError, match="NaN"):
            read_jsonl_records(rows_path)

    def test_torn_lines_are_skipped(self, tmp_path):
        records = [{"index": 0, "key": ["a", 1], "row": {"n": 5}},
                   {"index": 1, "key": ["a", 2], "row": {"p": 0.25}}]
        rows_path = self._write(
            tmp_path,
            ['{"index": 7, "key": ["to\n',  # torn, then its recovery
             *(json.dumps(record) + "\n" for record in records),
             "\n",
             '{"index": 9, "key": ["torn"'])  # torn final line
        assert read_jsonl_records(rows_path) == records

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_every_non_finite_token_raises(self, token):
        line = '{"index": 0, "key": ["a"], "row": {"x": [1, %s]}}' % token
        with pytest.raises(NonFiniteRowError, match=token):
            parse_record_line(line)

    def test_missing_rows_file_reads_as_no_records(self, tmp_path):
        assert read_jsonl_records(str(tmp_path / "rows.jsonl")) == []
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        store = RunStore.open(str(tmp_path), "E8", params)
        assert load_run(store.path)[1] == []

    def test_records_to_rows_last_write_wins_in_cell_order(self):
        records = [{"index": 2, "key": ["c"], "row": {"v": 1}},
                   {"index": 0, "key": ["a"], "row": {"v": 2}},
                   {"index": 1, "key": ["b"], "row": {"v": 3}},
                   {"index": 0, "key": ["a"], "row": {"v": 4}}]
        assert records_to_rows(records) == [{"v": 4}, {"v": 3}, {"v": 1}]

    def test_parse_builds_no_decoder_per_line(self, monkeypatch):
        from repro.results import store as store_module

        def no_new_decoders(*args, **kwargs):
            raise AssertionError("a JSONDecoder was built per line")

        monkeypatch.setattr(store_module.json, "JSONDecoder",
                            no_new_decoders)
        monkeypatch.setattr(store_module.json, "loads", no_new_decoders)
        assert parse_record_line('{"index": 0, "key": [], "row": {}}') \
            == {"index": 0, "key": [], "row": {}}

    def test_round_trip_keeps_values_and_types(self, tmp_path):
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        store = RunStore.open(str(tmp_path), "E8", params)
        rows = [{"int": 1, "float": 1.0, "sum": 0.1 + 0.2, "tiny": 5e-324,
                 "big": 2 ** 60, "none": None, "flag": True,
                 "text": "née \"q\"", "grid": [[1, 2.5], []]},
                {"int": -3, "float": -0.0, "nested": {"k": [None, 1]}}]
        for index, row in enumerate(rows):
            store.write_row(index, [f"cell-{index}"], row)
        loaded = load_run(store.path)[1]
        assert loaded == rows
        assert [json.dumps(row) for row in loaded] == \
            [json.dumps(row) for row in rows]
        assert type(loaded[0]["int"]) is int
        assert type(loaded[0]["float"]) is float


class TestFinishedRunFiles:
    def test_finish_writes_only_manifest_rows_and_telemetry(self,
                                                             tmp_path):
        experiment = get_experiment("E8")
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        telemetry = Telemetry()
        store = RunStore.open(str(tmp_path), "E8", params)
        store.attach_telemetry(telemetry)
        experiment.run(params=params, store=store, telemetry=telemetry)
        telemetry.close()
        store.finish(wall_time=0.1)
        assert sorted(os.listdir(store.path)) == \
            ["manifest.json", "rows.jsonl", "telemetry.jsonl"]


class TestLegacyStore:
    """Stores that also carry a ``rows.columns.json`` copy still read."""

    @pytest.fixture
    def legacy(self, tmp_path):
        root = tmp_path / "results"
        shutil.copytree(os.path.join(LEGACY_STORE, "E2"), root / "E2")
        with open(os.path.join(LEGACY_STORE, "expected.json")) as handle:
            expected = json.load(handle)
        run_dir = list_runs(str(root))[0]
        assert os.path.exists(os.path.join(run_dir, "rows.columns.json"))
        assert read_manifest(run_dir)["columnar"]
        return str(root), run_dir, expected

    def _cli(self, capsys, argv):
        from repro.cli import main

        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_load_run_reads_identical_rows(self, legacy):
        _, run_dir, expected = legacy
        assert load_run(run_dir)[1] == expected["rows"]

    def test_query_reads_identical_rows(self, legacy, capsys):
        root, _, expected = legacy
        payload = self._cli(capsys, ["query", "SELECT * FROM rows",
                                     "--out", root, "--format", "json"])
        assert {"columns": payload["columns"],
                "rows": payload["rows"]} == expected["query"]

    def test_report_reads_identical_rows(self, legacy, capsys):
        root, _, expected = legacy
        payload = self._cli(capsys, ["report", "E2", "--out", root,
                                     "--format", "json"])
        assert {key: payload[key] for key in expected["report"]} == \
            expected["report"]

    def test_scan_runs_yields_the_jsonl_records(self, legacy):
        root, run_dir, expected = legacy
        [(scanned_dir, manifest, records)] = list(scan_runs(root))
        assert scanned_dir == run_dir
        assert manifest["experiment"] == "E2"
        assert records_to_rows(records) == expected["rows"]

    def test_tampered_columnar_copy_is_never_read(self, legacy, capsys):
        root, run_dir, expected = legacy
        with open(os.path.join(run_dir, "rows.columns.json"), "w") as fh:
            fh.write('{"columns": ["n"], "rows": 1}\n[[999]]\n')
        assert load_run(run_dir)[1] == expected["rows"]
        payload = self._cli(capsys, ["query", "SELECT * FROM rows",
                                     "--out", root, "--format", "json"])
        assert payload["rows"] == expected["query"]["rows"]

    def test_show_renders_the_stored_rows(self, legacy, capsys):
        from repro.cli import main

        _, run_dir, _ = legacy
        assert main(["show", run_dir]) == 0
        out = capsys.readouterr().out
        assert "columnar" not in out
        assert "66" in out  # mean windows of the n=10 row

    def test_resume_reuses_the_stored_rows(self, legacy):
        root, run_dir, expected = legacy
        manifest = read_manifest(run_dir)
        experiment = get_experiment("E2")
        params = experiment.resolve_params(manifest["params"])
        store = RunStore.open(root, "E2", params, workers=0)
        assert store.path == run_dir
        assert store.row_count == len(expected["rows"])
        rows_path = os.path.join(run_dir, "rows.jsonl")
        before = open(rows_path, "rb").read()
        rows = experiment.run(params=params, workers=0, store=store)
        store.finish(wall_time=0.1)
        # Every cell was already stored: nothing recomputed or appended.
        assert open(rows_path, "rb").read() == before
        assert [row for row in rows if row in expected["rows"]] == \
            expected["rows"]
        assert "columnar" not in read_manifest(run_dir)


class TestManifestDebounce:
    def _store(self, tmp_path):
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        return RunStore.open(str(tmp_path), "E8", params, workers=0)

    def test_row_writes_do_not_rewrite_the_manifest_each_time(
            self, tmp_path, monkeypatch):
        from repro.results import store as store_module

        store = self._store(tmp_path)
        # Freeze the clock so only the row-count threshold can trigger.
        frozen = store._last_manifest_write
        monkeypatch.setattr(store_module.time, "monotonic",
                            lambda: frozen)
        threshold = store_module.MANIFEST_EVERY_ROWS
        for i in range(threshold - 1):
            store.write_row(i, [f"cell-{i}"], {"n": i})
        assert store.manifest["row_count"] == 0  # still the open() write
        store.write_row(threshold - 1, ["cell-last"], {"n": threshold})
        assert store.manifest["row_count"] == threshold

    def test_elapsed_time_also_flushes(self, tmp_path, monkeypatch):
        from repro.results import store as store_module

        store = self._store(tmp_path)
        clock = [store._last_manifest_write]
        monkeypatch.setattr(store_module.time, "monotonic",
                            lambda: clock[0])
        store.write_row(0, ["cell-0"], {"n": 0})
        assert store.manifest["row_count"] == 0
        clock[0] += store_module.MANIFEST_MIN_INTERVAL
        store.write_row(1, ["cell-1"], {"n": 1})
        assert store.manifest["row_count"] == 2

    def test_reopen_corrects_a_lagging_count(self, tmp_path, monkeypatch):
        from repro.results import store as store_module

        store = self._store(tmp_path)
        frozen = store._last_manifest_write
        monkeypatch.setattr(store_module.time, "monotonic",
                            lambda: frozen)
        for i in range(5):
            store.write_row(i, [f"cell-{i}"], {"n": i})
        assert store.manifest["row_count"] == 0  # lagging, killed here
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        reopened = RunStore.open(str(tmp_path), "E8", params)
        assert reopened.manifest["row_count"] == 5

    def test_finish_writes_an_exact_manifest(self, tmp_path, monkeypatch):
        from repro.results import store as store_module

        store = self._store(tmp_path)
        frozen = store._last_manifest_write
        monkeypatch.setattr(store_module.time, "monotonic",
                            lambda: frozen)
        for i in range(3):
            store.write_row(i, [f"cell-{i}"], {"n": i})
        store.finish(wall_time=0.5)
        manifest = store.manifest
        assert manifest["row_count"] == 3
        assert manifest["completed"] is True


class TestNonFiniteCanonicalization:
    def test_write_row_stores_non_finite_floats_as_null(self, tmp_path):
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        store = RunStore.open(str(tmp_path), "E8", params)
        store.write_row(0, ["cell"], {"good": 0.5, "nan": float("nan"),
                                      "inf": float("inf"),
                                      "nested": {"x": float("-inf")}})
        line = open(os.path.join(store.path, "rows.jsonl")).readline()
        assert "NaN" not in line and "Infinity" not in line
        stored = json.loads(line)["row"]
        assert stored == {"good": 0.5, "nan": None, "inf": None,
                          "nested": {"x": None}}
        # The resumed view agrees with the stored form.
        reopened = RunStore.open(str(tmp_path), "E8", params)
        assert reopened.rows() == [stored]

    def test_non_finite_params_canonicalized_in_manifest(self, tmp_path):
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        params["threshold"] = float("inf")
        store = RunStore.open(str(tmp_path), "E8", params)
        assert store.manifest["params"]["threshold"] is None

    def test_loader_rejects_raw_nan_lines_loudly(self, tmp_path):
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        store = RunStore.open(str(tmp_path), "E8", params)
        store.write_row(0, ["cell"], {"n": 1})
        with open(os.path.join(store.path, "rows.jsonl"), "a") as handle:
            handle.write('{"index": 1, "key": ["bad"], '
                         '"row": {"x": NaN}}\n')
        # A pre-canonicalization line is an error, not a torn line to
        # silently drop on resume.
        with pytest.raises(NonFiniteRowError):
            RunStore.open(str(tmp_path), "E8", params)


class TestStoreRobustness:
    def _finished_run(self, tmp_path, seed=1):
        experiment = get_experiment("E8")
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,),
                                  "seed": seed})
        store = RunStore.open(str(tmp_path), "E8", params)
        experiment.run(params=params, store=store)
        store.finish(wall_time=0.1)
        return store

    def test_stray_files_do_not_brick_listing(self, tmp_path):
        store = self._finished_run(tmp_path)
        (tmp_path / "notes.txt").write_text("a stray root file\n")
        (tmp_path / "E8" / "download.partial").write_text("debris\n")
        assert list_runs(str(tmp_path)) == [store.path]
        assert latest_run(str(tmp_path), "E8") == store.path

    def test_load_run_on_a_stray_file_raises_cleanly(self, tmp_path):
        stray = tmp_path / "E8"
        stray.parent.mkdir(exist_ok=True)
        stray.write_text("not a directory\n")
        with pytest.raises(FileNotFoundError, match="not a run directory"):
            load_run(str(stray))

    def test_corrupt_manifest_skipped_with_warning(self, tmp_path):
        from repro.results import scan_runs

        good = self._finished_run(tmp_path, seed=1)
        broken = tmp_path / "E8" / "corrupt000000"
        broken.mkdir()
        (broken / "manifest.json").write_text("{definitely not json\n")
        headless = tmp_path / "E8" / "headless00000"
        headless.mkdir()
        (headless / "manifest.json").write_text('{"seed": 1}\n')
        with pytest.warns(RuntimeWarning, match="skipping unloadable"):
            scanned = list(scan_runs(str(tmp_path)))
        assert [run_dir for run_dir, _, _ in scanned] == [good.path]

    def test_load_run_reports_manifest_without_experiment(self, tmp_path):
        run_dir = tmp_path / "E8" / "headless00000"
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text('{"seed": 1}\n')
        with pytest.raises(ValueError, match="no 'experiment' field"):
            load_run(str(run_dir))

    def test_listing_a_missing_root_is_empty(self, tmp_path):
        assert list_runs(str(tmp_path / "nowhere")) == []
        assert latest_run(str(tmp_path / "nowhere"), "E8") is None
