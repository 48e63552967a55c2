"""SQL over every stored run: the ``repro query`` backend.

:func:`mount_store` flattens the whole results store into two logical
tables:

* ``rows`` — one record per stored data row, with the owning run's
  manifest fields joined in as columns (``experiment``, ``run_id``,
  ``seed``, ``backend``, ``completed``, ``wall_time_seconds``,
  ``params`` and ``run_health`` as JSON text, ``health_failures``), plus
  the row's cell identity (``cell``, ``row_index``) and every column of
  the row itself.
* ``runs`` — one record per run directory (the manifest summary, with
  ``row_count`` taken from the rows actually readable on disk, not from
  the manifest — a debounced manifest may lag a killed run by a few
  rows).

Runs executed with telemetry additionally contribute two tables mounted
from their ``telemetry.jsonl`` event logs (empty tables when no run has
one):

* ``spans`` — one record per span (``span_id``, ``parent_id``, ``name``,
  ``t0``, ``dur`` plus every span attribute seen — ``tag``, ``scope``,
  ``ok``...), with ``experiment``/``run_id`` joined in.
* ``metrics`` — one record per counter/gauge event (``kind``, ``name``,
  ``t``, ``delta``, ``value``), same join columns.

Reading goes through :func:`repro.results.store.scan_runs`, which parses
each run's ``rows.jsonl`` and skips corrupt run directories with a
warning instead of bricking every query.

:func:`run_query` executes SQL against those tables through the
dependency-free subset evaluator in :mod:`repro.results.minisql`, with
each experiment additionally mounted as a table of its own rows
(``SELECT * FROM E2 ...``).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.results.store import scan_runs
from repro.telemetry import TELEMETRY_NAME, read_events

#: Manifest-derived columns of the ``rows`` table, in order.  A row
#: column with the same name (e.g. the experiments' own ``experiment``
#: field) overwrites the joined value — for real data they agree.
ROW_META_COLUMNS = (
    "experiment", "run_id", "seed", "backend", "completed",
    "wall_time_seconds", "params", "run_health", "health_failures",
    "cell", "row_index",
)

RUNS_COLUMNS = (
    "experiment", "run_id", "seed", "backend", "completed",
    "wall_time_seconds", "row_count", "health_failures", "params",
)

#: Fixed columns of the ``spans`` table; span attributes follow
#: dynamically in first-seen order.
SPAN_META_COLUMNS = (
    "experiment", "run_id", "span_id", "parent_id", "name", "t0", "dur",
)

METRICS_COLUMNS = (
    "experiment", "run_id", "kind", "name", "t", "delta", "value",
)

#: The fixed event-schema keys of a span event; everything else on the
#: event is a free-form attribute.
_SPAN_EVENT_KEYS = ("kind", "id", "parent", "name", "t0", "dur")

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


class QueryError(ValueError):
    """A query that cannot be executed (bad SQL, unknown table...)."""


@dataclass
class MountedStore:
    """The results store flattened into queryable tables."""

    tables: Dict[str, List[Dict[str, Any]]]
    columns: Dict[str, List[str]]
    experiments: List[str] = field(default_factory=list)

    @property
    def row_count(self) -> int:
        return len(self.tables["rows"])


@dataclass(frozen=True)
class QueryResult:
    """One executed query: labelled columns, tuple rows, engine used."""

    columns: List[str]
    rows: List[Tuple[Any, ...]]
    engine: str

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


def _health_failures(manifest: Mapping[str, Any]) -> int:
    block = manifest.get("run_health") or {}
    return len(block.get("failures", []) or [])


def mount_store(root: str,
                experiment: Optional[str] = None) -> MountedStore:
    """Flatten every loadable run under ``root`` into rows/runs tables."""
    rows_table: List[Dict[str, Any]] = []
    runs_table: List[Dict[str, Any]] = []
    spans_table: List[Dict[str, Any]] = []
    metrics_table: List[Dict[str, Any]] = []
    row_columns: List[str] = list(ROW_META_COLUMNS)
    seen_columns = set(row_columns)
    span_columns: List[str] = list(SPAN_META_COLUMNS)
    span_seen = set(span_columns)
    experiments: List[str] = []
    for run_dir, manifest, records in scan_runs(root,
                                                experiment=experiment):
        run_id = run_dir.rstrip("/").rsplit("/", 1)[-1]
        name = manifest["experiment"]
        if name not in experiments:
            experiments.append(name)
        params_json = json.dumps(manifest.get("params"), sort_keys=True,
                                 allow_nan=False)
        health_json = json.dumps(manifest.get("run_health"),
                                 sort_keys=True, allow_nan=False)
        meta = {
            "experiment": name,
            "run_id": run_id,
            "seed": manifest.get("seed"),
            "backend": manifest.get("backend"),
            "completed": bool(manifest.get("completed")),
            "wall_time_seconds": manifest.get("wall_time_seconds"),
            "params": params_json,
            "run_health": health_json,
            "health_failures": _health_failures(manifest),
        }
        runs_table.append({
            **{key: meta[key] for key in
               ("experiment", "run_id", "seed", "backend", "completed",
                "wall_time_seconds", "params", "health_failures")},
            "row_count": len(records),
        })
        for record in records:
            flattened = dict(meta)
            flattened["cell"] = json.dumps(record["key"],
                                           allow_nan=False)
            flattened["row_index"] = record["index"]
            for column, value in record["row"].items():
                if column not in seen_columns:
                    seen_columns.add(column)
                    row_columns.append(column)
                if isinstance(value, (dict, list)):
                    value = json.dumps(value, sort_keys=True,
                                       allow_nan=False)
                flattened[column] = value
            rows_table.append(flattened)
        for event in read_events(os.path.join(run_dir, TELEMETRY_NAME)):
            kind = event.get("kind")
            if kind == "span":
                span_row: Dict[str, Any] = {
                    "experiment": name, "run_id": run_id,
                    "span_id": event.get("id"),
                    "parent_id": event.get("parent"),
                    "name": event.get("name"),
                    "t0": event.get("t0"),
                    "dur": event.get("dur"),
                }
                for key, value in event.items():
                    if key in _SPAN_EVENT_KEYS:
                        continue
                    if key not in span_seen:
                        span_seen.add(key)
                        span_columns.append(key)
                    if isinstance(value, (dict, list)):
                        value = json.dumps(value, sort_keys=True,
                                           allow_nan=False)
                    span_row[key] = value
                spans_table.append(span_row)
            elif kind in ("counter", "gauge"):
                value = event.get("value")
                if isinstance(value, (dict, list)):
                    value = json.dumps(value, sort_keys=True,
                                       allow_nan=False)
                metrics_table.append({
                    "experiment": name, "run_id": run_id,
                    "kind": kind, "name": event.get("name"),
                    "t": event.get("t"),
                    "delta": event.get("delta"), "value": value,
                })
    return MountedStore(
        tables={"rows": rows_table, "runs": runs_table,
                "spans": spans_table, "metrics": metrics_table},
        columns={"rows": row_columns, "runs": list(RUNS_COLUMNS),
                 "spans": span_columns,
                 "metrics": list(METRICS_COLUMNS)},
        experiments=experiments)


def query_store(store: MountedStore, sql: str) -> QueryResult:
    """Execute SQL against an already-mounted store."""
    from repro.results.minisql import MiniSQLError, execute

    tables = dict(store.tables)
    columns = dict(store.columns)
    for name in store.experiments:
        if _IDENTIFIER_RE.match(name) and \
                name.lower() not in {key.lower() for key in tables}:
            tables[name] = [row for row in store.tables["rows"]
                            if row.get("experiment") == name]
            columns[name] = store.columns["rows"]
    try:
        labels, rows = execute(sql, tables, columns)
    except MiniSQLError as error:
        raise QueryError(str(error)) from error
    return QueryResult(columns=labels, rows=rows, engine="minisql")


def run_query(root: str, sql: str) -> QueryResult:
    """Mount every run under ``root`` and execute one query."""
    return query_store(mount_store(root), sql)


__all__ = [
    "METRICS_COLUMNS",
    "MountedStore",
    "QueryError",
    "QueryResult",
    "ROW_META_COLUMNS",
    "RUNS_COLUMNS",
    "SPAN_META_COLUMNS",
    "mount_store",
    "query_store",
    "run_query",
]
