"""The :class:`Telemetry` recorder: spans, counters, gauges, event log.

One recorder rides along one campaign (an experiment run, a fuzz
campaign, a search campaign).  It records three kinds of events:

* **spans** — timed, hierarchical regions (``campaign > generation >
  chunk > trial``).  A span opened with :meth:`Telemetry.span` nests
  under the innermost open span; work timed elsewhere (worker processes
  report ``(result, t0, duration)`` triples back to the supervisor) is
  recorded after the fact with :meth:`Telemetry.record_span`.
* **counters** — monotonically accumulating totals (trials completed,
  retries, rows written, manifest flushes, fallback reasons).
* **gauges** — last-value-wins samples (trials expected, workers in
  flight, queue depth).

Every event is appended to a per-run ``telemetry.jsonl`` through a
buffered, debounced sink (see :data:`FLUSH_EVERY_EVENTS` /
:data:`FLUSH_MIN_INTERVAL`) and fanned out to registered listeners (the
live progress renderer).  :meth:`Telemetry.summary` reduces the run to
the ``telemetry`` manifest block; :func:`merge_telemetry_block`
accumulates blocks across resumed runs exactly like ``run_health``.

The observer-effect contract of the whole layer lives here: the recorder
consumes wall-clock time and nothing else — it never touches
``seeded_rng``/``random.Random`` (statically enforced by the T2 lint
check) and simulation/protocol code never imports it (T1).

Event schema (one strict-JSON object per ``telemetry.jsonl`` line)::

    {"kind": "span", "id": 3, "parent": 1, "name": "trial",
     "t0": <epoch seconds>, "dur": <seconds>, ...attributes}
    {"kind": "counter", "name": "trials_completed", "delta": 8,
     "t": <epoch seconds>}
    {"kind": "gauge", "name": "trials_total", "value": 240,
     "t": <epoch seconds>}
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

TELEMETRY_NAME = "telemetry.jsonl"
"""File name of the per-run event log inside a run directory."""

SPAN_KEYS = ("kind", "id", "parent", "name", "t0", "dur")
"""The fixed keys of a span event (see the schema above); every other
key on it is a free-form attribute."""

#: Sink debounce: flush the event buffer once it holds this many events...
FLUSH_EVERY_EVENTS = 256
#: ...or once this many seconds have passed since the last flush,
#: whichever comes first.  close() always flushes.
FLUSH_MIN_INTERVAL = 1.0

_UNSET = object()


def _jsonable(value: Any) -> Any:
    """Event attributes as canonical strict JSON (tuples become lists,
    non-finite floats become None) — the results layer's convention."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class Telemetry:
    """One campaign's structured observability recorder.

    Args:
        sink: path of the ``telemetry.jsonl`` event log to append to, or
            ``None`` for an in-memory recorder (aggregates and listeners
            still work; nothing is persisted).
    """

    def __init__(self, sink: Optional[str] = None) -> None:
        self.sink = sink
        self._listeners: List[Callable[[Dict[str, Any]], None]] = []
        self._stack: List[int] = []
        self._next_span_id = 0
        self._buffer: List[str] = []
        self._last_flush = time.monotonic()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, Any] = {}
        self._span_count = 0
        self._event_count = 0
        self._closed = False

    # -- listeners ----------------------------------------------------
    def add_listener(self,
                     listener: Callable[[Dict[str, Any]], None]) -> None:
        """Register a callable invoked with every event dict."""
        self._listeners.append(listener)

    # -- spans --------------------------------------------------------
    @property
    def current_span(self) -> Optional[int]:
        """The innermost open span's id, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[int]:
        """Open a span around a ``with`` body; emitted when it closes.

        The span nests under the innermost open span.  The body runs
        even if event emission would fail; a span interrupted by an
        exception is still emitted (with ``ok: false``) so a killed
        campaign's log keeps its partial timing tree.
        """
        span_id = self._next_span_id
        self._next_span_id += 1
        parent = self.current_span
        self._stack.append(span_id)
        t0 = time.time()
        start = time.perf_counter()
        ok = True
        try:
            yield span_id
        except BaseException:
            ok = False
            raise
        finally:
            self._stack.pop()
            if not ok:
                attrs = dict(attrs, ok=False)
            self._emit_span(span_id, parent, name, t0,
                            time.perf_counter() - start, attrs)

    def record_span(self, name: str, t0: float, duration: float,
                    parent: Any = _UNSET, **attrs: Any) -> int:
        """Record a span whose timing happened elsewhere (e.g. a worker).

        Args:
            name: span name (``trial``, ``chunk``, ``batch``...).
            t0: wall-clock start (epoch seconds, as ``time.time``).
            duration: elapsed seconds.
            parent: explicit parent span id (``None`` for a root-level
                span); defaults to the innermost open span.

        Returns:
            The new span's id (usable as ``parent`` for children).
        """
        span_id = self._next_span_id
        self._next_span_id += 1
        if parent is _UNSET:
            parent = self.current_span
        self._emit_span(span_id, parent, name, t0, duration, attrs)
        return span_id

    def _emit_span(self, span_id: int, parent: Optional[int], name: str,
                   t0: float, duration: float,
                   attrs: Dict[str, Any]) -> None:
        self._span_count += 1
        event = {"kind": "span", "id": span_id, "parent": parent,
                 "name": name, "t0": t0, "dur": duration}
        for key, value in attrs.items():
            event[key] = _jsonable(value)
        self._emit(event)

    # -- counters / gauges --------------------------------------------
    def count(self, name: str, delta: float = 1) -> None:
        """Accumulate ``delta`` onto the counter ``name``."""
        if not delta:
            return
        self._counters[name] = self._counters.get(name, 0) + delta
        self._emit({"kind": "counter", "name": name, "delta": delta,
                    "t": time.time()})

    def gauge(self, name: str, value: Any) -> None:
        """Sample the gauge ``name`` (last value wins in the summary)."""
        self._gauges[name] = _jsonable(value)
        self._emit({"kind": "gauge", "name": name,
                    "value": self._gauges[name], "t": time.time()})

    @property
    def counters(self) -> Dict[str, float]:
        """The accumulated counter totals (a copy)."""
        return dict(self._counters)

    # -- the sink -----------------------------------------------------
    def _emit(self, event: Dict[str, Any]) -> None:
        self._event_count += 1
        for listener in self._listeners:
            listener(event)
        if self.sink is None:
            return
        self._buffer.append(json.dumps(event, allow_nan=False))
        if len(self._buffer) >= FLUSH_EVERY_EVENTS or \
                time.monotonic() - self._last_flush >= FLUSH_MIN_INTERVAL:
            self.flush()

    def flush(self) -> None:
        """Append every buffered event to the sink."""
        self._last_flush = time.monotonic()
        if not self._buffer or self.sink is None:
            return
        with open(self.sink, "a") as handle:
            handle.write("\n".join(self._buffer) + "\n")
            handle.flush()
        self._buffer = []

    def close(self) -> None:
        """Flush the sink; the recorder stays readable (summary etc.)."""
        if self._closed:
            return
        self._closed = True
        self.flush()

    # -- the manifest block -------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """This run's ``telemetry`` manifest block (one segment)."""
        return {
            "segments": 1,
            "events": self._event_count,
            "spans": self._span_count,
            "counters": {name: self._counters[name]
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name]
                       for name in sorted(self._gauges)},
        }


def merge_telemetry_block(existing: Optional[Dict[str, Any]],
                          summary: Dict[str, Any]) -> Dict[str, Any]:
    """Fold one run segment's summary into a (possibly resumed) block.

    Counters, event and span totals accumulate across resumes; gauges
    take the newest segment's value (they are samples, not totals).
    Mirrors :func:`repro.runner.health.merge_health_block`.
    """
    merged: Dict[str, Any] = {
        "segments": 0, "events": 0, "spans": 0,
        "counters": {}, "gauges": {}}
    for block in (existing or {}), summary:
        if not block:
            continue
        merged["segments"] += int(block.get("segments", 0))
        merged["events"] += int(block.get("events", 0))
        merged["spans"] += int(block.get("spans", 0))
        for name, value in (block.get("counters") or {}).items():
            merged["counters"][name] = \
                merged["counters"].get(name, 0) + value
        merged["gauges"].update(block.get("gauges") or {})
    merged["counters"] = {name: merged["counters"][name]
                          for name in sorted(merged["counters"])}
    merged["gauges"] = {name: merged["gauges"][name]
                        for name in sorted(merged["gauges"])}
    return merged


def read_events(path: str) -> List[Dict[str, Any]]:
    """Load a ``telemetry.jsonl`` event log, skipping torn lines.

    A run killed mid-flush can leave a truncated final line; readers
    (``repro show --timing``, ``repro top``, the query mount) must keep
    working off the intact prefix.
    """
    events: List[Dict[str, Any]] = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail of a killed run
                if isinstance(event, dict) and "kind" in event:
                    events.append(event)
    except OSError:
        return []
    return events


__all__ = [
    "FLUSH_EVERY_EVENTS",
    "FLUSH_MIN_INTERVAL",
    "SPAN_KEYS",
    "TELEMETRY_NAME",
    "Telemetry",
    "merge_telemetry_block",
    "read_events",
]
