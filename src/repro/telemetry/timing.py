"""Read-side analysis of a run's telemetry event log.

Backs ``repro show --timing`` (per-cell trial-duration percentiles,
per-signature batch totals with their phase split, and the span tree of
the slowest trial) and
``repro top`` (a snapshot of a possibly still-running campaign tailed
from its event log).  Everything here works off
:func:`repro.telemetry.recorder.read_events`, so a killed run's intact
event prefix renders the same way a finished run's log does.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.recorder import SPAN_KEYS


def spans(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The span events only, in emission order."""
    return [event for event in events if event.get("kind") == "span"]


def span_attrs(span: Dict[str, Any]) -> Dict[str, Any]:
    """A span's free-form attributes (everything beyond the schema)."""
    return {key: value for key, value in span.items()
            if key not in SPAN_KEYS}


def trial_cell(span: Dict[str, Any]) -> str:
    """The cell identity a trial span belongs to, as display text.

    Trial spans carry their spec's ``tag`` (the cell key for experiment
    trials, ``[experiment, index]`` for fuzz/search); stringified so
    heterogeneous tags group stably.
    """
    tag = span.get("tag")
    if tag is None:
        return "-"
    return json.dumps(tag, allow_nan=False) if \
        isinstance(tag, (list, dict)) else str(tag)


def cell_timing_rows(events: Sequence[Dict[str, Any]],
                     percentiles: Sequence[float] = (50.0, 90.0, 99.0),
                     ) -> List[Dict[str, Any]]:
    """Per-cell trial-duration percentile rows (milliseconds).

    One row per distinct trial-span cell, ordered by total time spent,
    heaviest first — the table answers "which cells did this run spend
    its time on".
    """
    from repro.results.report import percentile

    durations: Dict[str, List[float]] = {}
    for span in spans(events):
        if span.get("name") != "trial":
            continue
        cell = trial_cell(span)
        durations.setdefault(cell, []).append(
            float(span.get("dur") or 0.0) * 1000.0)
    rows: List[Dict[str, Any]] = []
    for cell, values in durations.items():
        row: Dict[str, Any] = {
            "cell": cell, "trials": len(values),
            "total_ms": round(sum(values), 3),
            "min_ms": round(min(values), 3),
        }
        for q in percentiles:
            row[f"p{q:g}_ms"] = round(percentile(values, q), 3)
        row["max_ms"] = round(max(values), 3)
        rows.append(row)
    rows.sort(key=lambda row: (-row["total_ms"], row["cell"]))
    return rows


_BATCH_MS = (("dur", "total_ms"), ("deliver_s", "deliver_ms"),
             ("tally_s", "tally_ms"), ("decide_s", "decide_ms"))
"""Seconds-valued ``batch`` span fields and the millisecond columns
:func:`batch_timing_rows` totals them into."""

_BATCH_COUNTS = ("windows", "skipped_windows", "quarantined")
"""Count-valued ``batch`` span fields :func:`batch_timing_rows` totals."""


def batch_timing_rows(events: Sequence[Dict[str, Any]]
                      ) -> List[Dict[str, Any]]:
    """Per-signature ``batch`` span totals (milliseconds), heaviest first.

    The batched counterpart of :func:`cell_timing_rows`: a batched chunk
    records one ``batch`` span and no ``trial`` spans.  Besides the
    wall time, each row totals the engine's window phases the spans
    carry (``deliver_s``, ``tally_s``, ``decide_s``) and its counts
    (``windows``, the trial-windows advanced in bulk as
    ``skipped_windows``, and the trials ``quarantined`` to the per-trial
    oracle because they left the closed form).  A column no span of the
    signature carries (a run recorded before batch spans held it) stays
    ``None``, not a measured zero.
    """
    totals: Dict[str, Dict[str, Any]] = {}
    for span in spans(events):
        if span.get("name") != "batch":
            continue
        key = " ".join(str(part) for part in span.get("signature", ()))
        row = totals.setdefault(key, {
            "signature": key, "batches": 0, "trials": 0,
            **dict.fromkeys((column for _, column in _BATCH_MS)),
            **dict.fromkeys(_BATCH_COUNTS)})
        row["batches"] += 1
        row["trials"] += int(span.get("trials") or 0)
        for field, column in _BATCH_MS:
            if span.get(field) is not None:
                row[column] = (row[column] or 0.0) \
                    + float(span[field]) * 1000.0
        for field in _BATCH_COUNTS:
            if span.get(field) is not None:
                row[field] = (row[field] or 0) + int(span[field])
    rows = sorted(totals.values(),
                  key=lambda row: (-(row["total_ms"] or 0.0),
                                   row["signature"]))
    for row in rows:
        for _, column in _BATCH_MS:
            if row[column] is not None:
                row[column] = round(row[column], 3)
    return rows


def slowest_trial_chain(events: Sequence[Dict[str, Any]]
                        ) -> List[Dict[str, Any]]:
    """The slowest trial span's ancestry, root first, trial last.

    Spans are emitted on close, so ancestors of a trial appear *after*
    it in the log; the chain is resolved over the whole event set.
    Returns ``[]`` when the log holds no trial spans.
    """
    all_spans = spans(events)
    by_id = {span["id"]: span for span in all_spans if "id" in span}
    trials = [span for span in all_spans if span.get("name") == "trial"]
    if not trials:
        return []
    slowest = max(trials, key=lambda span: float(span.get("dur") or 0.0))
    chain: List[Dict[str, Any]] = [slowest]
    seen = {slowest.get("id")}
    parent = slowest.get("parent")
    while parent is not None and parent in by_id and parent not in seen:
        span = by_id[parent]
        chain.append(span)
        seen.add(parent)
        parent = span.get("parent")
    chain.reverse()
    return chain


def render_span_chain(chain: Sequence[Dict[str, Any]]) -> List[str]:
    """The ancestry chain as indented display lines."""
    lines: List[str] = []
    for depth, span in enumerate(chain):
        duration = float(span.get("dur") or 0.0)
        attrs = span_attrs(span)
        rendered = " ".join(f"{key}={json.dumps(value, allow_nan=False)}"
                            for key, value in sorted(attrs.items()))
        lines.append("  " * depth
                     + f"{span.get('name')} ({duration * 1000.0:.3f} ms"
                     + (f"; {rendered}" if rendered else "") + ")")
    return lines


def top_snapshot(events: Sequence[Dict[str, Any]],
                 manifest: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
    """One ``repro top`` snapshot reduced from an event log.

    Counters and span totals accumulate over the whole log; gauges and
    the observed rate reflect the log's trailing edge, so tailing a
    running campaign shows where it is *now*.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, Any] = {}
    span_count = 0
    first_t: Optional[float] = None
    last_t: Optional[float] = None
    for event in events:
        kind = event.get("kind")
        stamp = event.get("t0") if kind == "span" else event.get("t")
        if isinstance(stamp, (int, float)):
            first_t = stamp if first_t is None else min(first_t, stamp)
            last_t = stamp if last_t is None else max(last_t, stamp)
        if kind == "span":
            span_count += 1
        elif kind == "counter":
            name = str(event.get("name"))
            counters[name] = counters.get(name, 0) \
                + (event.get("delta") or 0)
        elif kind == "gauge":
            gauges[str(event.get("name"))] = event.get("value")
    completed = counters.get("trials_completed", 0)
    elapsed = (last_t - first_t) if first_t is not None \
        and last_t is not None and last_t > first_t else None
    snapshot: Dict[str, Any] = {
        "events": len(events),
        "spans": span_count,
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "trials_completed": completed,
        "trials_total": gauges.get("trials_total"),
        "elapsed_seconds": elapsed,
        "trials_per_sec": (completed / elapsed
                           if elapsed and completed else None),
        "completed": bool(manifest.get("completed")) if manifest else None,
    }
    return snapshot


def render_top(snapshot: Dict[str, Any], target: str) -> str:
    """A ``repro top`` snapshot as display text."""
    status = {True: "completed", False: "running", None: "?"}[
        snapshot.get("completed")]
    total = snapshot.get("trials_total")
    progress = f"{snapshot['trials_completed']}" \
        + (f"/{total}" if total else "") + " trials"
    rate = snapshot.get("trials_per_sec")
    lines = [f"== top: {target} ({status}; {progress}"
             + (f", {rate:.1f}/s" if rate else "")
             + f", {snapshot['events']} events) =="]
    counters = snapshot.get("counters") or {}
    if counters:
        lines.append("counters: " + " ".join(
            f"{name}={value:g}" for name, value in counters.items()))
    gauges = snapshot.get("gauges") or {}
    if gauges:
        lines.append("gauges:   " + " ".join(
            f"{name}={json.dumps(value, allow_nan=False)}"
            for name, value in gauges.items()))
    return "\n".join(lines)


__all__ = [
    "batch_timing_rows",
    "cell_timing_rows",
    "render_span_chain",
    "render_top",
    "slowest_trial_chain",
    "span_attrs",
    "spans",
    "top_snapshot",
    "trial_cell",
]
