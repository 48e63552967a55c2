"""Telemetry tests: the recorder, and the observer-effect guarantee.

The keystone contract mirrors the supervisor's: telemetry may consume
wall-clock time, but the result rows of any campaign are bit-identical
with telemetry on, off, or killed and resumed mid-run — across
worker counts and both execution backends.  Everything else here
(hierarchy, merge semantics, torn-tail tolerance, the progress renderer,
the timing reductions) supports that contract.
"""

import io
import json
import os

import pytest

from repro.tables import format_table
from repro.experiments import get_experiment
from repro.results import RunStore, run_directory
from repro.results.store import read_manifest
from repro.runner import RunHealth
from repro.telemetry import (TELEMETRY_NAME, ProgressRenderer, Telemetry,
                             merge_telemetry_block, read_events)
from repro.telemetry.timing import (batch_timing_rows, cell_timing_rows,
                                    render_span_chain, slowest_trial_chain,
                                    top_snapshot)

E2_PARAMS = {"ns": (12, 16), "trials": 1, "max_windows": 200000,
             "use_resets": True, "seed": 9}
"""Cheap, distinct window-engine cells (the supervisor tests' battery)."""


class TestRecorder:
    def test_span_hierarchy_and_emission_order(self, tmp_path):
        sink = str(tmp_path / TELEMETRY_NAME)
        telemetry = Telemetry(sink=sink)
        with telemetry.span("campaign", label="run E2"):
            with telemetry.span("cell", cell=["E2", 12]):
                telemetry.record_span("trial", 100.0, 0.25, tag="a")
        telemetry.close()
        events = read_events(sink)
        spans = {event["name"]: event for event in events
                 if event["kind"] == "span"}
        assert set(spans) == {"campaign", "cell", "trial"}
        assert spans["campaign"]["parent"] is None
        assert spans["cell"]["parent"] == spans["campaign"]["id"]
        assert spans["trial"]["parent"] == spans["cell"]["id"]
        # Spans are emitted on close: innermost first, campaign last.
        assert [event["name"] for event in events] == \
            ["trial", "cell", "campaign"]
        assert spans["trial"]["t0"] == 100.0
        assert spans["trial"]["dur"] == 0.25
        assert spans["campaign"]["label"] == "run E2"

    def test_span_survives_exception_with_ok_false(self, tmp_path):
        sink = str(tmp_path / TELEMETRY_NAME)
        telemetry = Telemetry(sink=sink)
        with pytest.raises(KeyboardInterrupt):
            with telemetry.span("campaign"):
                raise KeyboardInterrupt
        telemetry.close()
        (span,) = read_events(sink)
        assert span["name"] == "campaign" and span["ok"] is False
        assert telemetry.current_span is None  # the stack unwound

    def test_counters_accumulate_and_gauges_sample(self):
        telemetry = Telemetry()
        telemetry.count("retries")
        telemetry.count("retries", 2)
        telemetry.count("noise", 0)  # zero deltas emit nothing
        telemetry.gauge("workers", 2)
        telemetry.gauge("workers", 4)
        summary = telemetry.summary()
        assert summary["counters"] == {"retries": 3}
        assert summary["gauges"] == {"workers": 4}
        assert summary["events"] == 4 and summary["spans"] == 0

    def test_merge_accumulates_counters_and_keeps_newest_gauges(self):
        first = {"segments": 1, "events": 10, "spans": 3,
                 "counters": {"retries": 2, "rows_written": 5},
                 "gauges": {"workers": 4}}
        second = {"segments": 1, "events": 7, "spans": 2,
                  "counters": {"rows_written": 3},
                  "gauges": {"workers": 2, "trials_total": 8}}
        merged = merge_telemetry_block(first, second)
        assert merged == {
            "segments": 2, "events": 17, "spans": 5,
            "counters": {"retries": 2, "rows_written": 8},
            "gauges": {"trials_total": 8, "workers": 2}}
        assert merge_telemetry_block(None, second) == second

    def test_read_events_skips_torn_and_foreign_lines(self, tmp_path):
        path = str(tmp_path / TELEMETRY_NAME)
        good = {"kind": "counter", "name": "retries", "delta": 1, "t": 1.0}
        with open(path, "w") as handle:
            handle.write(json.dumps(good) + "\n")
            handle.write("[1, 2]\n")  # parseable but not an event
            handle.write(json.dumps(good)[:10] + "\n")  # torn tail
        assert read_events(path) == [good]
        assert read_events(str(tmp_path / "absent.jsonl")) == []

    def test_listener_sees_every_event(self):
        telemetry = Telemetry()
        seen = []
        telemetry.add_listener(seen.append)
        telemetry.count("trials_completed", 5)
        telemetry.gauge("trials_total", 10)
        assert [event["kind"] for event in seen] == ["counter", "gauge"]


class TestProgressRenderer:
    @staticmethod
    def _events(completed=3, total=10):
        return [{"kind": "gauge", "name": "trials_total", "value": total,
                 "t": 0.0},
                {"kind": "counter", "name": "trials_completed",
                 "delta": completed, "t": 0.0}]

    def test_plain_mode_stays_silent_on_quick_runs(self):
        stream = io.StringIO()
        renderer = ProgressRenderer("run E2", stream=stream,
                                    interactive=False)
        for event in self._events():
            renderer(event)
        renderer.close()
        assert stream.getvalue() == ""

    def test_interactive_mode_redraws_in_place_and_clears(self):
        stream = io.StringIO()
        renderer = ProgressRenderer("run E2", stream=stream,
                                    interactive=True)
        for event in self._events():
            renderer._last_render = 0.0  # defeat the TTY rate limit
            renderer(event)
        assert "\r\x1b[K" in stream.getvalue()
        assert "3/10 trials" in stream.getvalue()
        renderer.close()
        assert stream.getvalue().endswith("\r\x1b[K")

    def test_status_line_reports_rate_and_gauges(self):
        renderer = ProgressRenderer("fuzz", stream=io.StringIO(),
                                    interactive=False)
        for event in self._events():
            renderer(event)
        renderer({"kind": "gauge", "name": "workers", "value": 4,
                  "t": 0.0})
        line = renderer.status_line()
        assert line.startswith("fuzz")
        assert "3/10 trials" in line and "workers=4" in line


class TestTimingReductions:
    @staticmethod
    def _span(span_id, parent, name, t0, dur, **attrs):
        event = {"kind": "span", "id": span_id, "parent": parent,
                 "name": name, "t0": t0, "dur": dur}
        event.update(attrs)
        return event

    def _events(self):
        return [
            self._span(1, 0, "trial", 0.0, 0.010, tag=["E2", 12]),
            self._span(2, 0, "trial", 0.0, 0.030, tag=["E2", 12]),
            self._span(3, 0, "trial", 0.0, 0.100, tag=["E2", 16]),
            self._span(0, None, "cell", 0.0, 0.2, cell=["E2"]),
        ]

    def test_cell_timing_rows_heaviest_first(self):
        rows = cell_timing_rows(self._events(), percentiles=(50.0,))
        assert [row["trials"] for row in rows] == [1, 2]
        assert rows[0]["total_ms"] == pytest.approx(100.0)
        assert rows[1]["p50_ms"] == pytest.approx(20.0)

    def test_batch_timing_rows_total_the_phase_split(self):
        phases = {"deliver_s": 0.006, "tally_s": 0.002, "decide_s": 0.001,
                  "windows": 40, "skipped_windows": 500,
                  "quarantined": 3}
        events = self._events() + [
            self._span(4, 0, "batch", 0.0, 0.010, trials=3,
                       signature=["reset-tolerant", 12], **phases),
            self._span(5, 0, "batch", 0.0, 0.020, trials=2,
                       signature=["reset-tolerant", 12], **phases),
        ]
        [row] = batch_timing_rows(events)
        assert (row["batches"], row["trials"]) == (2, 5)
        assert row["total_ms"] == pytest.approx(30.0)
        assert row["deliver_ms"] == pytest.approx(12.0)
        assert row["tally_ms"] == pytest.approx(4.0)
        assert row["decide_ms"] == pytest.approx(2.0)
        assert (row["windows"], row["skipped_windows"],
                row["quarantined"]) == (80, 1000, 6)

    def test_batch_timing_rows_leave_unrecorded_phases_blank(self):
        """A batch span without the phase split (an older run) totals its
        wall time, and its phase columns read ``None``, not zero."""
        events = self._events() + [
            self._span(4, 0, "batch", 0.0, 0.010, trials=3,
                       signature=["reset-tolerant", 12]),
        ]
        [row] = batch_timing_rows(events)
        assert row["total_ms"] == pytest.approx(10.0)
        assert (row["deliver_ms"], row["tally_ms"], row["decide_ms"],
                row["windows"], row["skipped_windows"],
                row["quarantined"]) == (None,) * 6
        body = format_table([row]).splitlines()[-1]
        assert body.split()[-6:] == ["-"] * 6

    def test_slowest_trial_chain_walks_to_the_root(self):
        chain = slowest_trial_chain(self._events())
        assert [span["name"] for span in chain] == ["cell", "trial"]
        assert chain[-1]["dur"] == pytest.approx(0.100)
        lines = render_span_chain(chain)
        assert lines[0].startswith("cell")
        assert lines[1].startswith("  trial")

    def test_top_snapshot_reduces_counters_and_completion(self):
        events = self._events() + [
            {"kind": "counter", "name": "trials_completed", "delta": 3,
             "t": 10.0},
            {"kind": "gauge", "name": "trials_total", "value": 3,
             "t": 0.0},
        ]
        snapshot = top_snapshot(events, manifest={"completed": True})
        assert snapshot["completed"] is True
        assert snapshot["trials_completed"] == 3
        assert snapshot["trials_total"] == 3


class TestBatchSpans:
    def test_batch_spans_nest_under_the_cell_they_deliver(self, tmp_path):
        """Each batched chunk books under the cell that consumes it."""
        experiment = get_experiment("E2")
        params = experiment.resolve_params(None, quick=True)
        events = []
        telemetry = Telemetry()
        telemetry.add_listener(events.append)
        store = RunStore.open(str(tmp_path), "E2", params)
        experiment.run(params=params, workers=0, store=store,
                       backend="batched", telemetry=telemetry)
        spans = [event for event in events if event["kind"] == "span"]
        cells = {span["id"]: span for span in spans
                 if span["name"] == "cell"}
        batches = [span for span in spans if span["name"] == "batch"]
        assert batches
        delivered = {}
        for batch in batches:
            assert batch["parent"] in cells
            key = json.dumps(cells[batch["parent"]]["cell"])
            delivered[key] = delivered.get(key, 0) + batch["trials"]
        expected = {json.dumps(list(cell.key)): len(cell.specs)
                    for cell in experiment.cells(params=params)}
        assert delivered == expected

    @pytest.mark.parametrize("backend", ["trial", "batched"])
    def test_one_trial_cells_stay_attributed(self, backend):
        """A one-trial cell is named by its trial tag or its cell span.

        E1's cells hold one trial each: a trial that runs per trial opens
        no ``cell`` span (the ``trial`` span's tag is the key), while a
        batched chunk has no ``trial`` spans, so its cells keep theirs.
        On the batched backend E1's ``random``-adversary cells still run
        per trial, so both kinds appear, each cell named exactly once.
        """
        experiment = get_experiment("E1")
        params = experiment.resolve_params(None, quick=True)
        events = []
        telemetry = Telemetry()
        telemetry.add_listener(events.append)
        experiment.run(params=params, workers=0, backend=backend,
                       telemetry=telemetry)
        spans = [event for event in events if event["kind"] == "span"]
        keys = sorted(list(cell.key)
                      for cell in experiment.cells(params=params))
        by_cell = [span["cell"] for span in spans if span["name"] == "cell"]
        by_tag = [span["tag"] for span in spans if span["name"] == "trial"]
        if backend == "trial":
            assert not by_cell
        else:
            assert by_cell and by_tag
        assert sorted(by_cell + by_tag) == keys

    @pytest.mark.parametrize("workers", [0, 2])
    def test_batch_spans_carry_the_engine_phase_split(self, workers):
        """Every batch span times its window phases and counts its
        windows, wherever it ran."""
        experiment = get_experiment("E2")
        params = experiment.resolve_params(None, quick=True)
        events = []
        telemetry = Telemetry()
        telemetry.add_listener(events.append)
        experiment.run(params=params, workers=workers, backend="batched",
                       telemetry=telemetry)
        batches = [event for event in events if event["kind"] == "span"
                   and event["name"] == "batch"]
        assert batches
        for batch in batches:
            phases = [batch["deliver_s"], batch["tally_s"],
                      batch["decide_s"]]
            assert all(seconds >= 0.0 for seconds in phases)
            assert sum(phases) <= batch["dur"]
            assert batch["windows"] > 0
        assert sum(batch["deliver_s"] for batch in batches) > 0.0
        # E2's split trials spend most windows blocked, advanced in bulk.
        assert sum(batch["skipped_windows"] for batch in batches) > 0
        # E2 resets every window; each one still runs in closed form.
        assert sum(batch["quarantined"] for batch in batches) == 0
        assert telemetry.counters["trials_batched"] == sum(
            len(cell.specs) for cell in experiment.cells(params=params))


class TestObserverEffect:
    """Telemetry on or off never changes a result row."""

    @pytest.mark.parametrize("workers", [0, 1, 4])
    @pytest.mark.parametrize("backend", ["trial", "batched"])
    def test_rows_bit_identical_across_observation_modes(
            self, workers, backend):
        experiment = get_experiment("E2")
        params = experiment.resolve_params(E2_PARAMS)
        reference = experiment.run(params=params, workers=0, backend="trial")

        observed = Telemetry()
        assert experiment.run(params=params, workers=workers,
                              backend=backend,
                              telemetry=observed) == reference
        # Non-vacuity: every trial was observed, whatever the path.
        expected = sum(len(cell.specs)
                       for cell in experiment.cells(params=params))
        assert observed.counters["trials_completed"] == expected

    def test_store_rows_on_disk_identical_with_and_without(self, tmp_path):
        experiment = get_experiment("E2")
        params = experiment.resolve_params(E2_PARAMS)

        bare = RunStore.open(str(tmp_path / "bare"), "E2", params)
        experiment.run(params=params, workers=0, store=bare)
        bare.finish(wall_time=0.0)

        telemetry = Telemetry()
        traced = RunStore.open(str(tmp_path / "traced"), "E2", params)
        traced.attach_telemetry(telemetry)
        experiment.run(params=params, workers=0, store=traced,
                       telemetry=telemetry)
        telemetry.close()
        traced.finish(wall_time=0.0)

        def rows_bytes(store):
            with open(os.path.join(store.path, "rows.jsonl"), "rb") as fh:
                return fh.read()

        assert rows_bytes(bare) == rows_bytes(traced)
        assert telemetry.sink == os.path.join(traced.path, TELEMETRY_NAME)
        assert read_events(telemetry.sink)
        block = traced.manifest["telemetry"]
        assert block["segments"] == 1
        assert block["counters"]["rows_written"] == traced.row_count
        assert "telemetry" not in bare.manifest


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


class TestKillResume:
    def test_partial_manifest_carries_health_and_telemetry(
            self, tmp_path, monkeypatch):
        """Regression: mid-run manifests must carry the live run_health
        (and telemetry) blocks, not only finished ones."""
        import repro.results.store as store_module

        monkeypatch.setattr(store_module, "MANIFEST_EVERY_ROWS", 1)
        health = RunHealth()
        telemetry = Telemetry()
        store = RunStore.open(str(tmp_path), "E2", {"seed": 1},
                              health=health)
        store.attach_telemetry(telemetry)
        health.retries += 1
        store.write_row(0, ["a"], {"x": 1})  # debounced manifest rewrite
        manifest = read_manifest(store.path)
        assert not manifest["completed"]
        assert manifest["run_health"]["retries"] == 1
        assert manifest["telemetry"]["counters"]["rows_written"] == 1

    def test_kill_resume_is_bit_identical_and_log_survives(
            self, tmp_path, monkeypatch):
        import repro.results.store as store_module

        monkeypatch.setattr(store_module, "MANIFEST_EVERY_ROWS", 1)
        experiment = get_experiment("E2")
        params = experiment.resolve_params(E2_PARAMS)
        reference = experiment.run(params=params, workers=0, backend="trial")

        path = run_directory(str(tmp_path), "E2", params)
        first = Telemetry()
        killed = _KillAfter(path, "E2", params, kill_after=1)
        killed.attach_telemetry(first)
        with pytest.raises(KeyboardInterrupt):
            experiment.run(params=params, workers=0, store=killed,
                           telemetry=first)
        first.close()  # what the CLI's timing context does on the way out
        assert not read_manifest(path)["completed"]
        interrupted_log = read_events(os.path.join(path, TELEMETRY_NAME))
        assert interrupted_log  # the interrupted segment persisted

        second = Telemetry()
        resumed = RunStore.open(str(tmp_path), "E2", params)
        resumed.attach_telemetry(second)
        rows = experiment.run(params=params, workers=0, store=resumed,
                              telemetry=second)
        second.close()
        resumed.finish(wall_time=0.1)

        assert rows == reference
        block = resumed.manifest["telemetry"]
        assert block["segments"] == 2
        assert block["counters"]["rows_written"] == resumed.row_count
        # Both segments share one append-only event log.
        full_log = read_events(os.path.join(path, TELEMETRY_NAME))
        assert len(full_log) > len(interrupted_log)
        assert full_log[:len(interrupted_log)] == interrupted_log
