"""``repro.telemetry`` — structured observability for the execution stack.

One :class:`Telemetry` recorder rides along a campaign and is threaded
(as a single optional ``telemetry=`` parameter) through every execution
layer: the CLI opens the root ``campaign`` span, experiment/fuzz/search
loops open ``cell``/``generation`` spans, and the executor records
``chunk``/``trial`` spans from worker-reported timings, plus one
``batch`` span per batched chunk (one vectorized group).
Counters and gauges (trials completed, retries, rows written, worker
utilization...) ride the same event stream, which persists as a per-run
``telemetry.jsonl`` next to ``rows.jsonl`` and is summarized into the
manifest's ``telemetry`` block.

The **observer-effect guarantee** is the design constraint everything
here obeys: result rows are bit-identical with telemetry on, off, or
resumed mid-run, across any worker count and both backends.  Telemetry
consumes wall-clock time and nothing else — it never reads the seeded
entropy streams (lint check T2) and simulation/protocol/adversary code
never imports it (lint check T1).

See the "Telemetry & profiling" section of PERFORMANCE.md for the event
schema, span vocabulary, query recipes and the overhead budget.
"""

from repro.telemetry.progress import ProgressRenderer
from repro.telemetry.recorder import (TELEMETRY_NAME, Telemetry,
                                      merge_telemetry_block, read_events)

__all__ = [
    "ProgressRenderer",
    "TELEMETRY_NAME",
    "Telemetry",
    "merge_telemetry_block",
    "read_events",
]
