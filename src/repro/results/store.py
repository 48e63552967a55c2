"""The persistent results store: one directory per run, JSONL rows.

A *run* is one (experiment, parameters) execution.  Its directory is
content-addressed — ``<root>/<experiment>/<digest>`` where the digest
hashes the experiment name and the canonical JSON of its resolved
parameters — so rerunning the same configuration lands in the same
directory and resumes instead of recomputing.

Layout::

    results/E2/1a2b3c4d5e6f/
        manifest.json   # experiment, params, seed, workers, wall time, ...
        rows.jsonl      # one {"index", "key", "row"} object per data row
        telemetry.jsonl # span/metric events, when telemetry is attached

Rows stream to ``rows.jsonl`` the moment their cell completes (the file is
flushed per line), so a killed run keeps everything it finished.  On
rerun, :meth:`RunStore.completed_rows` feeds the already-stored rows back
to :func:`repro.experiments.base.run_cells`, which skips those cells.
Synthetic finalizer rows (the E2/E4 exponential fits) are *never* stored;
they are recomputed from the data rows when a run is rendered.

``rows.jsonl`` is the only row format: resume, :func:`load_run` and the
query/report layer (:func:`scan_runs`) all parse it, and this module is
the only one that knows its layout.

Two write-boundary guarantees hold for every stored line: values are
canonical strict JSON (non-finite floats become ``null``; the loaders
refuse raw ``NaN``/``Infinity`` tokens with :class:`NonFiniteRowError`
rather than dropping such a line as torn), and the manifest rewrite that
keeps ``row_count`` fresh is *debounced* (at most once per
:data:`MANIFEST_EVERY_ROWS` rows or :data:`MANIFEST_MIN_INTERVAL`
seconds) so ingest is not dominated by O(rows) whole-manifest rewrites.
Reopening a run always rewrites an exact manifest, so a killed run's
count is corrected the moment anything looks at it through the store.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import warnings
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.experiments.base import Row, cell_key_id
from repro.runner.health import (RunHealth, empty_health_block,
                                 merge_health_block)

MANIFEST_NAME = "manifest.json"
ROWS_NAME = "rows.jsonl"
FUZZ_EXPERIMENT = "fuzz"
"""Results-store experiment name fuzz campaigns are filed under."""
SEARCH_EXPERIMENT = "search"
"""Results-store experiment name search campaigns are filed under."""
CAMPAIGNS = (FUZZ_EXPERIMENT, SEARCH_EXPERIMENT)
"""The stored campaigns that are not registered experiments; readers
resolve these names without loading the experiment registry."""
_DIGEST_LENGTH = 12

#: Manifest-rewrite debounce: flush the row count at most once per this
#: many rows...
MANIFEST_EVERY_ROWS = 64
#: ...or once this many seconds have passed since the last rewrite,
#: whichever comes first.  finish()/record_health()/open() always write.
MANIFEST_MIN_INTERVAL = 1.0


#: One stored line's payload: ``{"index": int, "key": [...], "row": {...}}``.
Record = Dict[str, Any]


class NonFiniteRowError(ValueError):
    """A stored row contains ``NaN``/``Infinity`` — the write boundary
    canonicalizes these to ``null``, so their presence means a writer
    bypassed :meth:`RunStore.write_row` (or predates the canonical
    format); refusing beats strict parsers silently dropping the line."""


def _reject_non_finite(token: str) -> Any:
    raise NonFiniteRowError(
        f"non-finite JSON constant {token!r} in stored rows; the store "
        f"canonicalizes NaN/Infinity to null at the write boundary — "
        f"rewrite the offending line (or recompute the run)")


# One shared decoder: ``json.loads(line, parse_constant=...)`` would
# build a fresh JSONDecoder for every line.
_RECORD_DECODER = json.JSONDecoder(parse_constant=_reject_non_finite)


def parse_record_line(line: str) -> Record:
    """Parse one jsonl record line, refusing non-finite float tokens."""
    return _RECORD_DECODER.decode(line)


def read_jsonl_records(rows_path: str) -> List[Record]:
    """The tolerant line-by-line parse of ``rows.jsonl``.

    Blank and torn (unparseable) lines are skipped — a killed run leaves
    at most one torn *final* line, and the fault injector's torn-write
    model relies on intact recovery lines following torn ones.  Lines
    carrying ``NaN``/``Infinity`` raise :class:`NonFiniteRowError`
    instead of being mistaken for torn lines and dropped.
    """
    records: List[Record] = []
    if not os.path.exists(rows_path):
        return records
    with open(rows_path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = parse_record_line(line)
            except json.JSONDecodeError:
                continue
            records.append(record)
    return records


def records_to_rows(records: Sequence[Record]) -> List[Row]:
    """Data rows in cell order, last write per cell key winning."""
    by_key: Dict[str, Tuple[int, Row]] = {}
    for record in records:
        by_key[cell_key_id(record["key"])] = \
            (record["index"], record["row"])
    return [row for _, row in
            sorted(by_key.values(), key=lambda item: item[0])]


def params_digest(experiment: str, params: Mapping[str, Any]) -> str:
    """Content digest identifying one (experiment, params) configuration."""
    canonical = json.dumps({"experiment": experiment,
                            "params": _jsonable(params)},
                           sort_keys=True, allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")) \
        .hexdigest()[:_DIGEST_LENGTH]


def run_directory(root: str, experiment: str,
                  params: Mapping[str, Any]) -> str:
    """The content-addressed directory of a run under ``root``."""
    return os.path.join(root, experiment, params_digest(experiment, params))


def _jsonable(value: Any) -> Any:
    """Canonical strict-JSON data: tuples become lists, non-finite
    floats become None (strict parsers reject ``NaN``/``Infinity``
    tokens, so they must never reach a stored line)."""
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class RunStore:
    """One run directory: the manifest plus streaming JSONL row writes."""

    def __init__(self, path: str, experiment: str,
                 params: Mapping[str, Any],
                 workers: Optional[int] = None,
                 fault_injector: Optional[Any] = None,
                 health: Optional[RunHealth] = None,
                 backend: Optional[str] = None) -> None:
        self.path = path
        self.experiment = experiment
        self.params = _jsonable(params)
        self.workers = workers
        self.backend = backend
        self._fault_injector = fault_injector
        self._health = health
        self._rows: Dict[str, Tuple[int, Row]] = {}
        os.makedirs(self.path, exist_ok=True)
        self._created_at: Optional[str] = None
        self._health_block: Optional[Dict[str, Any]] = None
        self._telemetry: Optional[Any] = None
        self._telemetry_block: Optional[Dict[str, Any]] = None
        self._rows_since_manifest = 0
        self._last_manifest_write = 0.0
        if os.path.exists(self._manifest_path):
            manifest = self.manifest
            self._created_at = manifest.get("created_at")
            self._health_block = manifest.get("run_health")
            self._telemetry_block = manifest.get("telemetry")
            stored_backend = manifest.get("backend")
            if backend is None:
                # A read-only open keeps whatever the run recorded.
                self.backend = stored_backend
            elif stored_backend is not None and stored_backend != backend:
                # A resume under a different backend is recorded as
                # "mixed" so readers never mistake the run's rows for a
                # single backend's output.
                self.backend = "mixed"
        self._load_existing()
        # Constructing a store only *reads*; the manifest is (re)written
        # by open(), write_row() and finish(), never on the load path.

    # -- opening ------------------------------------------------------
    @classmethod
    def open(cls, root: str, experiment: str, params: Mapping[str, Any],
             workers: Optional[int] = None,
             fault_injector: Optional[Any] = None,
             health: Optional[RunHealth] = None,
             backend: Optional[str] = None) -> "RunStore":
        """Open (creating or resuming) the run for this configuration."""
        store = cls(run_directory(root, experiment, params), experiment,
                    params, workers=workers, fault_injector=fault_injector,
                    health=health, backend=backend)
        store._write_manifest(completed=store._manifest_completed(),
                              wall_time=store._manifest_wall_time())
        return store

    # -- telemetry ----------------------------------------------------
    def attach_telemetry(self, telemetry: Optional[Any]) -> None:
        """Point a telemetry recorder's sink at this run's event log.

        From here on the recorder appends to ``telemetry.jsonl`` in the
        run directory, the store mirrors its row/manifest writes into
        its counters, and every manifest rewrite summarizes it into the
        ``telemetry`` block (merged over previous segments exactly like
        ``run_health``).  Duck-typed: anything with ``sink`` /
        ``count`` / ``summary`` works.
        """
        self._telemetry = telemetry
        if telemetry is not None and getattr(telemetry, "sink", 0) is None:
            from repro.telemetry import TELEMETRY_NAME
            telemetry.sink = os.path.join(self.path, TELEMETRY_NAME)

    def _count(self, name: str, delta: int = 1) -> None:
        if self._telemetry is not None:
            self._telemetry.count(name, delta)

    # -- rows ---------------------------------------------------------
    def completed_rows(self) -> Dict[str, Row]:
        """Rows already on disk, keyed by :func:`cell_key_id`."""
        return {key: row for key, (_, row) in self._rows.items()}

    def write_row(self, index: int, key: Sequence[Any], row: Row) -> None:
        """Persist one freshly computed row (append one JSONL line)."""
        key_id = cell_key_id(key)
        record = {"index": index, "key": _jsonable(list(key)),
                  "row": _jsonable(row)}
        payload = json.dumps(record, allow_nan=False)
        with open(self._rows_path, "a") as handle:
            if self._fault_injector is not None and \
                    self._fault_injector.decide_torn(key_id):
                # Injected torn write: a truncated (unparseable) copy of
                # the record on its own line, modelling a kill mid-write.
                # The loader skips torn lines, and the intact record
                # below is the recovery write.
                handle.write(payload[:max(1, len(payload) // 2)] + "\n")
                if self._health is not None:
                    self._health.torn_writes += 1
            handle.write(payload + "\n")
            handle.flush()
        self._rows[key_id] = (record["index"], record["row"])
        self._count("rows_written")
        # Keep row_count reasonably current for a killed run without an
        # O(rows) whole-manifest rewrite per row: debounced, and exact
        # again at the next open()/finish().
        self._rows_since_manifest += 1
        if self._rows_since_manifest >= MANIFEST_EVERY_ROWS or \
                time.monotonic() - self._last_manifest_write \
                >= MANIFEST_MIN_INTERVAL:
            self._write_manifest(completed=False, wall_time=None)

    def record_health(self, health: Optional[RunHealth]) -> None:
        """Fold one execution's health ledger into the manifest.

        Counters accumulate across resumed runs; a clean ledger is a
        no-op (the manifest keeps its existing block untouched).  The
        store's own live ledger (``health=`` at construction) is already
        folded in by every manifest rewrite — mid-run manifests of a
        killed run carry it too, not just finished ones — so recording
        it here only forces an immediate rewrite.
        """
        if health is None or health.clean:
            return
        if health is not self._health:
            self._health_block = merge_health_block(self._health_block,
                                                    health)
        self._write_manifest(completed=self._manifest_completed(),
                             wall_time=self._manifest_wall_time())

    # -- completion ---------------------------------------------------
    def finish(self, wall_time: float) -> None:
        """Mark the run complete and record its wall time."""
        self._write_manifest(completed=True, wall_time=wall_time)

    # -- artifacts ----------------------------------------------------
    def artifact_path(self, *parts: str) -> str:
        """An absolute path for an artifact file inside the run directory.

        Creates the parent directory, so callers (the fuzz campaign's
        minimized counterexamples, the search campaign's best-schedule
        files) can write straight to the returned path.
        """
        path = os.path.join(self.path, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    # -- reading back -------------------------------------------------
    @property
    def manifest(self) -> Dict[str, Any]:
        with open(self._manifest_path) as handle:
            return json.load(handle)

    def rows(self) -> List[Row]:
        """The stored data rows, in cell order."""
        return [row for _, row in
                sorted(self._rows.values(), key=lambda item: item[0])]

    @property
    def row_count(self) -> int:
        return len(self._rows)

    # -- internals ----------------------------------------------------
    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.path, MANIFEST_NAME)

    @property
    def _rows_path(self) -> str:
        return os.path.join(self.path, ROWS_NAME)

    def _manifest_completed(self) -> bool:
        if not os.path.exists(self._manifest_path):
            return False
        return bool(self.manifest.get("completed"))

    def _manifest_wall_time(self) -> Optional[float]:
        if not os.path.exists(self._manifest_path):
            return None
        return self.manifest.get("wall_time_seconds")

    def _load_existing(self) -> None:
        for record in read_jsonl_records(self._rows_path):
            self._rows[cell_key_id(record["key"])] = \
                (record["index"], record["row"])

    def _current_health_block(self) -> Dict[str, Any]:
        """The manifest's ``run_health`` block as of right now.

        The baseline (previous segments, plus legacy ledgers recorded
        explicitly) is folded with the *live* ledger at write time; the
        baseline itself is never mutated in-process, so repeated
        rewrites of a still-running segment cannot double-count it.
        """
        block = self._health_block
        if self._health is not None and not self._health.clean:
            block = merge_health_block(block, self._health)
        return block if block is not None else empty_health_block()

    def _current_telemetry_block(self) -> Optional[Dict[str, Any]]:
        """The ``telemetry`` block: prior segments + the live recorder."""
        if self._telemetry is None:
            return self._telemetry_block
        from repro.telemetry import merge_telemetry_block
        return merge_telemetry_block(self._telemetry_block,
                                     self._telemetry.summary())

    def _write_manifest(self, completed: bool,
                        wall_time: Optional[float]) -> None:
        from repro import __version__

        if self._created_at is None:
            self._created_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self._count("manifest_flushes")
        manifest = {
            "experiment": self.experiment,
            "params": self.params,
            "seed": self.params.get("seed"),
            "workers": self.workers,
            "backend": self.backend,
            "package_version": __version__,
            "created_at": self._created_at,
            "completed": completed,
            "wall_time_seconds": wall_time,
            "row_count": len(self._rows),
            "run_health": self._current_health_block(),
        }
        telemetry_block = self._current_telemetry_block()
        if telemetry_block is not None:
            manifest["telemetry"] = telemetry_block
        tmp_path = self._manifest_path + ".tmp"
        with open(tmp_path, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True,
                      allow_nan=False)
            handle.write("\n")
        os.replace(tmp_path, self._manifest_path)
        self._rows_since_manifest = 0
        self._last_manifest_write = time.monotonic()


def read_manifest(run_dir: str) -> Dict[str, Any]:
    """A run directory's manifest, validated just enough to be usable.

    Raises:
        FileNotFoundError: no ``manifest.json`` in ``run_dir`` (also the
            verdict for a stray *file* posing as a run directory — no
            raw ``NotADirectoryError`` escapes).
        ValueError: the manifest is unparseable or has no ``experiment``
            field.
    """
    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(
            f"{run_dir!r} is not a run directory (no {MANIFEST_NAME})")
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except json.JSONDecodeError as error:
        raise ValueError(
            f"unreadable manifest at {manifest_path}: {error}") from error
    if not isinstance(manifest, dict) or "experiment" not in manifest:
        raise ValueError(
            f"manifest at {manifest_path} has no 'experiment' field")
    return manifest


def load_run(path: str) -> Tuple[Dict[str, Any], List[Row]]:
    """Load a stored run: (manifest, data rows in cell order)."""
    manifest = read_manifest(path)
    records = read_jsonl_records(os.path.join(path, ROWS_NAME))
    return manifest, records_to_rows(records)


def list_runs(root: str,
              experiment: Optional[str] = None) -> List[str]:
    """Run directories under ``root`` (optionally one experiment's),
    newest manifest first.

    Stray files and unreadable directories under the results root are
    skipped (with a warning for the unreadable ones) — one piece of
    debris must never brick every reader of the store.
    """
    if experiment:
        experiment_dirs = [os.path.join(root, experiment)]
    elif os.path.isdir(root):
        experiment_dirs = [os.path.join(root, name)
                           for name in sorted(os.listdir(root))]
    else:
        experiment_dirs = []
    runs: List[Tuple[float, str, str]] = []
    for experiment_dir in experiment_dirs:
        if not os.path.isdir(experiment_dir):
            continue
        try:
            digests = sorted(os.listdir(experiment_dir))
        except OSError as error:
            warnings.warn(f"skipping unreadable results directory "
                          f"{experiment_dir}: {error}", RuntimeWarning,
                          stacklevel=2)
            continue
        for digest in digests:
            run_dir = os.path.join(experiment_dir, digest)
            manifest = os.path.join(run_dir, MANIFEST_NAME)
            try:
                if not os.path.isfile(manifest):
                    continue
                # Filesystem mtimes have coarse resolution, so two runs
                # written back-to-back can tie; the digest breaks the tie
                # deterministically instead of leaving the order to
                # directory-listing accidents.
                runs.append((os.path.getmtime(manifest), digest, run_dir))
            except OSError as error:
                warnings.warn(f"skipping unreadable run directory "
                              f"{run_dir}: {error}", RuntimeWarning,
                              stacklevel=2)
    runs.sort(reverse=True)
    return [run_dir for _, _, run_dir in runs]


def scan_runs(root: str, experiment: Optional[str] = None
              ) -> Iterator[Tuple[str, Dict[str, Any], List[Dict[str, Any]]]]:
    """Iterate every loadable run: ``(run_dir, manifest, records)``.

    The query/report layer's mount path: corrupt manifests, stray files
    and unreadable rows are skipped with a warning instead of raising,
    so one damaged run directory cannot take ``repro query`` down for
    the whole store.
    """
    for run_dir in list_runs(root, experiment=experiment):
        try:
            manifest = read_manifest(run_dir)
            records = read_jsonl_records(os.path.join(run_dir, ROWS_NAME))
        except (OSError, ValueError, KeyError) as error:
            warnings.warn(f"skipping unloadable run {run_dir}: {error}",
                          RuntimeWarning, stacklevel=2)
            continue
        yield run_dir, manifest, records


def latest_run(root: str, experiment: str) -> Optional[str]:
    """The most recent *completed* run directory for one experiment.

    Falls back to the newest partial run when nothing has completed, so
    an interrupted rerun never shadows a finished table.
    """
    runs = list_runs(root, experiment=experiment)
    for run_dir in runs:
        try:
            with open(os.path.join(run_dir, MANIFEST_NAME)) as handle:
                if json.load(handle).get("completed"):
                    return run_dir
        except (OSError, json.JSONDecodeError):
            continue
    return runs[0] if runs else None


__all__ = [
    "CAMPAIGNS",
    "FUZZ_EXPERIMENT",
    "SEARCH_EXPERIMENT",
    "MANIFEST_EVERY_ROWS",
    "MANIFEST_MIN_INTERVAL",
    "MANIFEST_NAME",
    "ROWS_NAME",
    "NonFiniteRowError",
    "Record",
    "RunStore",
    "params_digest",
    "parse_record_line",
    "read_jsonl_records",
    "records_to_rows",
    "run_directory",
    "read_manifest",
    "load_run",
    "list_runs",
    "latest_run",
    "scan_runs",
]
