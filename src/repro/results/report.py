"""Percentile reports over an experiment's stored runs: ``repro report``.

A report aggregates *every* loadable run of one experiment under the
results root (different seeds and parameter overrides land in different
content-addressed run directories) into three sections:

* ``runs`` — one line per stored run: completion, row count (counted
  from the rows actually on disk), backend, wall time, health failures.
* ``cells`` — the percentile table: for every cell key and every numeric
  row column, the distribution of that metric across the stored runs
  (count / min / p50 / p90 / p99 / max by default).  With a single run
  per cell the percentiles collapse onto the stored value — the table
  is then simply a long-format view of the run.
* ``finalizers`` — the synthetic rows (the E2/E4 exponential fits)
  recomputed from the latest completed run's data rows through the
  experiment registry's ``finalize`` hook, exactly as ``repro show``
  renders them.  They are never stored, so the report re-derives them.
* ``timing`` — per-cell trial-duration percentiles aggregated from the
  ``telemetry.jsonl`` event logs of every run that has one (runs
  executed without telemetry simply contribute nothing).

Percentiles use linear interpolation between closest ranks (numpy's
default), implemented here in pure Python.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.results.store import CAMPAIGNS, records_to_rows, scan_runs
from repro.tables import format_table
from repro.telemetry import TELEMETRY_NAME, read_events

DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)


class ReportError(ValueError):
    """No stored runs (or no usable rows) to report on."""


@dataclass
class Report:
    """One experiment's aggregated report."""

    experiment: str
    root: str
    runs: List[Dict[str, Any]]
    cells: List[Dict[str, Any]]
    finalizers: List[Dict[str, Any]]
    percentiles: Tuple[float, ...] = DEFAULT_PERCENTILES
    skipped_columns: List[str] = field(default_factory=list)
    timing: List[Dict[str, Any]] = field(default_factory=list)

    def as_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "root": self.root,
            "percentiles": list(self.percentiles),
            "runs": self.runs,
            "cells": self.cells,
            "finalizers": self.finalizers,
            "skipped_columns": self.skipped_columns,
            "timing": self.timing,
        }
        return json.dumps(payload, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (linear interpolation, numpy-compatible)."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction)


def _percentile_label(q: float) -> str:
    return f"p{q:g}"


def _is_metric(value: Any) -> bool:
    # bool is an int subclass; flags are not metrics.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def build_report(root: str, experiment: str,
                 percentiles: Sequence[float] = DEFAULT_PERCENTILES,
                 ) -> Report:
    """Aggregate every stored run of ``experiment`` under ``root``."""
    registered, name = None, experiment
    if experiment not in CAMPAIGNS:
        from repro.experiments.registry import get_experiment

        try:
            registered = get_experiment(experiment)
            name = registered.name
        except KeyError:
            # Unregistered stores report too, like fuzz/search campaigns:
            # they just have no finalizer to recompute.
            pass
    percentiles = tuple(float(q) for q in percentiles)
    for q in percentiles:
        if not 0.0 <= q <= 100.0:
            raise ReportError(f"percentile {q} outside [0, 100]")

    runs_section: List[Dict[str, Any]] = []
    samples: Dict[str, Dict[str, List[float]]] = {}
    cell_order: List[str] = []
    column_order: List[str] = []
    skipped: List[str] = []
    telemetry_events: List[Dict[str, Any]] = []
    # (manifest, records) of the run the finalizers are recomputed from:
    # the newest completed run, else the newest one (scan_runs yields
    # newest first — the order latest_run() picks from).
    newest = None
    for run_dir, manifest, records in scan_runs(root, experiment=name):
        if newest is None or (manifest.get("completed")
                              and not newest[0].get("completed")):
            newest = (manifest, records)
        run_id = run_dir.rstrip("/").rsplit("/", 1)[-1]
        telemetry_events.extend(read_events(
            os.path.join(run_dir, TELEMETRY_NAME)))
        health = manifest.get("run_health") or {}
        runs_section.append({
            "run_id": run_id,
            "seed": manifest.get("seed"),
            "completed": bool(manifest.get("completed")),
            "rows": len(records),
            "backend": manifest.get("backend"),
            "wall_time_seconds": manifest.get("wall_time_seconds"),
            "health_failures": len(health.get("failures", []) or []),
        })
        for record in records:
            cell = json.dumps(record["key"], allow_nan=False)
            if cell not in samples:
                samples[cell] = {}
                cell_order.append(cell)
            for column, value in record["row"].items():
                if not _is_metric(value):
                    if value is not None and \
                            not isinstance(value, (str, bool)) and \
                            column not in skipped:
                        skipped.append(column)
                    continue
                if column not in column_order:
                    column_order.append(column)
                samples[cell].setdefault(column, []).append(float(value))
    if not runs_section:
        raise ReportError(
            f"no stored runs of {name} under {root!r}; run "
            f"`python -m repro run {name}` first")

    cells_section: List[Dict[str, Any]] = []
    for cell in cell_order:
        for column in column_order:
            values = samples[cell].get(column)
            if not values:
                continue
            entry: Dict[str, Any] = {
                "cell": cell, "metric": column, "count": len(values),
                "min": min(values),
            }
            for q in percentiles:
                entry[_percentile_label(q)] = percentile(values, q)
            entry["max"] = max(values)
            cells_section.append(entry)

    finalizers: List[Dict[str, Any]] = []
    if registered is not None and registered.finalize is not None:
        manifest, records = newest
        finalizers = registered.finalize(records_to_rows(records),
                                         manifest["params"])
    from repro.telemetry.timing import cell_timing_rows

    timing = cell_timing_rows(telemetry_events, percentiles=percentiles)
    return Report(experiment=name, root=root, runs=runs_section,
                  cells=cells_section, finalizers=finalizers,
                  percentiles=percentiles, skipped_columns=skipped,
                  timing=timing)


def render_report_text(report: Report) -> str:
    """The report as the CLI's text rendering."""
    sections = [f"== report: {report.experiment} "
                f"({len(report.runs)} stored run(s) under "
                f"{report.root!r}) =="]
    sections.append("-- runs --")
    sections.append(format_table(report.runs))
    if report.cells:
        sections.append("")
        sections.append("-- per-cell percentiles --")
        sections.append(format_table(report.cells))
    if report.finalizers:
        sections.append("")
        sections.append("-- recomputed finalizer rows (never stored) --")
        sections.append(format_table(report.finalizers))
    if report.timing:
        sections.append("")
        sections.append("-- trial timing (telemetry, ms) --")
        sections.append(format_table(report.timing))
    if report.skipped_columns:
        sections.append("")
        sections.append("non-numeric columns not aggregated: "
                        + ", ".join(report.skipped_columns))
    return "\n".join(sections) + "\n"


__all__ = [
    "DEFAULT_PERCENTILES",
    "Report",
    "ReportError",
    "build_report",
    "percentile",
    "render_report_text",
]
