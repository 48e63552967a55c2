"""SQL over every stored run: the ``repro query`` backend.

:func:`mount_store` loads the results store into an in-memory
:mod:`sqlite3` database with these tables:

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
* one view per experiment over ``rows`` (``SELECT * FROM E2 ...``):
  every row of the runs whose manifest names that experiment.

Runs executed with telemetry additionally contribute two tables mounted
from their ``telemetry.jsonl`` event logs (empty tables when no run has
one):

* ``spans`` — one record per span (``span_id``, ``parent_id``, ``name``,
  ``t0``, ``dur`` plus every span attribute seen — ``tag``, ``scope``,
  ``ok``...), with ``experiment``/``run_id`` joined in.
* ``metrics`` — one record per counter/gauge event (``kind``, ``name``,
  ``t``, ``delta``, ``value``), same join columns.

Bool columns read back as bools and nested values as JSON text.  SQL
identifiers ignore case, so a column whose lower-cased name is taken
mounts with a ``_`` suffix (E8's ``C`` beside ``c`` reads as ``C_``).

Reading goes through :func:`repro.results.store.scan_runs`, which parses
each run's ``rows.jsonl`` and skips corrupt run directories with a
warning instead of bricking every query.

:func:`run_query` mounts only the tables its SQL names (no table can be
read unless its name appears as a word of the query) and runs the query
under an authorizer that allows reading and nothing else.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
from dataclasses import dataclass
from operator import itemgetter
from typing import (AbstractSet, Any, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.results.store import scan_runs
from repro.telemetry import TELEMETRY_NAME, read_events
from repro.telemetry.timing import span_attrs

#: Manifest-derived columns of the ``rows`` table, in order.  A row
#: column with the same name (e.g. the experiments' own ``experiment``
#: field, ``E8-talagrand`` in an E8 run) overwrites the joined value; the
#: per-experiment views select the rows of the runs whose manifest names
#: the experiment instead.
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

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

#: The only authorizer actions a query may take: read and compute.
_READ_ONLY_ACTIONS = frozenset({sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ,
                                sqlite3.SQLITE_FUNCTION})

_HINT = ("; repro query runs one read-only SQLite SELECT over the rows, "
         "runs, spans and metrics tables and one view per experiment")

sqlite3.register_converter("BOOLEAN", lambda raw: raw != b"0")
# sqlite3 stores a bool as an int either way; adapting it explicitly
# skips the slow adapter search that a bool parameter otherwise takes.
sqlite3.register_adapter(bool, int)


class QueryError(ValueError):
    """A query that cannot be executed (bad SQL, unknown table...)."""


@dataclass
class MountedStore:
    """The results store loaded into an in-memory SQLite database."""

    connection: sqlite3.Connection
    #: Column names of each mounted table, in ``SELECT *`` order.
    columns: Dict[str, List[str]]
    experiments: List[str]


@dataclass(frozen=True)
class QueryResult:
    """One executed query: labelled columns, tuple rows, engine used."""

    columns: List[str]
    rows: List[Tuple[Any, ...]]
    engine: str

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


#: Reused encoders: ``json.dumps`` with options builds a new one per call.
_encode_cell = json.JSONEncoder(allow_nan=False).encode
_encode_nested = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


class _Table:
    """One table being mounted: its columns and rows as value lists."""

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        self.name = name
        self.columns = list(columns)
        self.positions = {column: index
                          for index, column in enumerate(self.columns)}
        self._folded = {column.lower() for column in self.columns}
        self.rows: List[List[Any]] = []
        # The last key order placed in consecutive columns: its keys and
        # the NULLs between the leading values and its first column.
        self._run: Tuple[Tuple[str, ...], List[None]] = ((), [])

    def append(self, values: List[Any], extra: Mapping[str, Any]) -> None:
        """Add one row: ``values`` fill the leading columns (the same
        count on every row), each ``extra`` item goes to the column of
        its key (new keys become new columns).  Rows may end short;
        :meth:`create` pads them."""
        keys = tuple(extra)
        run_keys, padding = self._run
        if keys == run_keys:
            values += padding
            values += extra.values()
        else:
            start = len(values)
            placed = [self._place(values, key, value)
                      for key, value in extra.items()]
            if placed and placed[0] >= start and placed == list(
                    range(placed[0], placed[0] + len(placed))):
                self._run = (keys, [None] * (placed[0] - start))
        self.rows.append(values)

    def _place(self, values: List[Any], key: str, value: Any) -> int:
        position = self.positions.get(key)
        if position is None:
            # SQL identifiers ignore case: a later column whose name folds
            # onto a taken one (E8's ``C`` beside ``c``) mounts as ``C_``.
            name = key
            while name.lower() in self._folded:
                name += "_"
            self._folded.add(name.lower())
            position = self.positions[key] = len(self.columns)
            self.columns.append(name)
        if position >= len(values):
            values.extend([None] * (position + 1 - len(values)))
        values[position] = value
        return position

    def create(self, connection: sqlite3.Connection) -> None:
        """Create the table and insert every row.

        A column whose every non-NULL value is a bool is declared
        ``BOOLEAN``; nested values are stored as JSON text.
        """
        width = len(self.columns)
        rows = self.rows
        for row in rows:
            if len(row) < width:
                row.extend([None] * (width - len(row)))
        declared = []
        for position, name in enumerate(self.columns):
            kinds = set(map(type, map(itemgetter(position), rows)))
            if dict in kinds or list in kinds:
                for row in rows:
                    if isinstance(row[position], (dict, list)):
                        row[position] = _encode_nested(row[position])
            kinds.discard(type(None))
            declared.append('"' + name.replace('"', '""') + '"'
                            + (" BOOLEAN" if kinds == {bool} else ""))
        connection.execute(
            f"CREATE TABLE {self.name} ({', '.join(declared)})")
        insert = f"INSERT INTO {self.name} VALUES ({', '.join('?' * width)})"
        try:
            connection.executemany(insert, rows)
        except OverflowError:
            # An integer beyond SQLite's 64 bits (say a 20-digit --seed)
            # is stored as its decimal text rather than refusing the store.
            connection.execute(f"DELETE FROM {self.name}")
            connection.executemany(insert, ([_fit(value) for value in row]
                                            for row in rows))


def _fit(value: Any) -> Any:
    if value.__class__ is int and not -2 ** 63 <= value < 2 ** 63:
        return str(value)
    return value


def _mount_telemetry(run_dir: str, name: str, run_id: str,
                     spans: _Table, metrics: _Table) -> None:
    for event in read_events(os.path.join(run_dir, TELEMETRY_NAME)):
        kind = event.get("kind")
        if kind == "span":
            values = [name, run_id, event.get("id"), event.get("parent"),
                      event.get("name"), event.get("t0"), event.get("dur")]
            spans.append(values, span_attrs(event))
        elif kind in ("counter", "gauge"):
            values = [name, run_id, kind, event.get("name"), event.get("t"),
                      event.get("delta"), event.get("value")]
            metrics.append(values, {})


def _any_of(terms: Sequence[str]) -> str:
    """``terms`` joined by ``OR`` as a balanced tree, so that thousands of
    terms stay within SQLite's expression depth limit; ``0`` if none."""
    if len(terms) <= 1:
        return terms[0] if terms else "0"
    middle = len(terms) // 2
    return f"({_any_of(terms[:middle])} OR {_any_of(terms[middle:])})"


def mount_store(root: str, experiment: Optional[str] = None,
                tables: Optional[AbstractSet[str]] = None) -> MountedStore:
    """Load every loadable run under ``root`` into an in-memory database.

    ``tables`` is the set of lower-cased names a query may read; ``None``
    mounts everything.  ``runs`` is always mounted; ``rows`` (and the
    experiment views over it) only when ``rows`` or an experiment is
    named; the telemetry logs are parsed only for ``spans``/``metrics``.
    """
    def wanted(name: str) -> bool:
        return tables is None or name.lower() in tables

    runs = list(scan_runs(root, experiment=experiment))
    experiments = list(dict.fromkeys(manifest["experiment"]
                                     for _, manifest, _ in runs))
    views, taken = [], {"rows", "runs", "spans", "metrics"}
    for name in experiments:
        if _IDENTIFIER_RE.match(name) and name.lower() not in taken:
            taken.add(name.lower())
            views.append(name)
    rows_table = _Table("rows", ROW_META_COLUMNS)
    runs_table = _Table("runs", RUNS_COLUMNS)
    spans_table = _Table("spans", SPAN_META_COLUMNS)
    metrics_table = _Table("metrics", METRICS_COLUMNS)
    with_rows = wanted("rows") or any(map(wanted, views))
    with_telemetry = wanted("spans") or wanted("metrics")
    mounted = [runs_table]
    if with_rows:
        mounted.append(rows_table)
    if with_telemetry:
        mounted += [spans_table, metrics_table]
    # The rowid block each run's rows occupy, per manifest experiment: a
    # row's own ``experiment`` field may overwrite the joined column.
    blocks: Dict[str, List[str]] = {}
    for run_dir, manifest, records in runs:
        run_id = run_dir.rstrip("/").rsplit("/", 1)[-1]
        name = manifest["experiment"]
        head = [name, run_id, manifest.get("seed"), manifest.get("backend"),
                bool(manifest.get("completed")),
                manifest.get("wall_time_seconds")]
        params = _encode_nested(manifest.get("params"))
        health = manifest.get("run_health")
        failures = len((health or {}).get("failures") or [])
        runs_table.append([*head, len(records), failures, params], {})
        meta = [*head, params, _encode_nested(health), failures]
        if with_rows:
            first = len(rows_table.rows) + 1
            for record in records:
                rows_table.append(
                    [*meta, _encode_cell(record["key"]), record["index"]],
                    record["row"])
            if records:
                blocks.setdefault(name, []).append(
                    f"rowid BETWEEN {first} AND {len(rows_table.rows)}")
        if with_telemetry:
            _mount_telemetry(run_dir, name, run_id, spans_table,
                             metrics_table)
    del runs  # the tables hold every value now; free the parsed records
    connection = sqlite3.connect(":memory:",
                                 detect_types=sqlite3.PARSE_DECLTYPES)
    with connection:
        for table in mounted:
            table.create(connection)
        if with_rows:
            for name in views:
                connection.execute(
                    f'CREATE VIEW "{name}" AS SELECT * FROM rows '
                    f"WHERE {_any_of(blocks.get(name, []))}")
    return MountedStore(
        connection=connection,
        columns={table.name: table.columns for table in mounted},
        experiments=experiments)


def _read_only(action: int, *_: Any) -> int:
    if action in _READ_ONLY_ACTIONS:
        return sqlite3.SQLITE_OK
    return sqlite3.SQLITE_DENY


def query_store(store: MountedStore, sql: str) -> QueryResult:
    """Execute one read-only SQL statement against a mounted store."""
    store.connection.set_authorizer(_read_only)
    try:
        cursor = store.connection.execute(sql)
        rows = cursor.fetchall()
    except (sqlite3.Error, sqlite3.Warning) as error:
        raise QueryError(f"{error}{_HINT}") from error
    if cursor.description is None:
        raise QueryError("no SELECT statement" + _HINT)
    return QueryResult(columns=[column[0] for column in cursor.description],
                       rows=rows, engine="sqlite")


def run_query(root: str, sql: str) -> QueryResult:
    """Mount the tables ``sql`` names and execute it."""
    words = frozenset(word.lower() for word in _WORD_RE.findall(sql))
    return query_store(mount_store(root, tables=words), sql)


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
