"""Persistent, resumable experiment results — plus the query layer.

One run = one content-addressed directory holding a ``manifest.json``
(experiment name, parameters, master seed, workers, wall time, package
version) and a ``rows.jsonl`` of streamed data rows.  Rerunning the same
configuration reopens the same directory and skips every cell whose row is
already on disk.

``rows.jsonl`` is the only row format, append-only and the ground truth
for every reader: ``repro query`` (:mod:`repro.results.query`, SQL over
every run through the built-in :mod:`repro.results.minisql` engine) and
``repro report`` (:mod:`repro.results.report`, percentile tables per
cell plus recomputed finalizer rows) scan it through
:func:`scan_runs` — see PERFORMANCE.md ("The results workflow" and
"Query & report").
"""

from repro.results.store import (MANIFEST_NAME, ROWS_NAME, RunStore,
                                 latest_run, list_runs, load_run,
                                 params_digest, read_manifest,
                                 run_directory, scan_runs)

__all__ = [
    "MANIFEST_NAME",
    "ROWS_NAME",
    "RunStore",
    "latest_run",
    "list_runs",
    "load_run",
    "params_digest",
    "read_manifest",
    "run_directory",
    "scan_runs",
]
