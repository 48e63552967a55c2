"""The declarative experiment model: cells, experiments, and the run loop.

An :class:`Experiment` describes one table of EXPERIMENTS.md as data: a
name, a parameter grid (full-size defaults plus quick-mode overrides), a
cell builder that expands the grid into :class:`Cell` objects, a row
schema, and an optional finalizer for synthetic rows (the exponential-fit
rows of E2/E4).  The registry in :mod:`repro.experiments.registry` mirrors
the protocol and adversary registries, so every front end — the
``python -m repro`` CLI, the benchmark suite and the examples — runs
experiments through the single code path implemented here.

A :class:`Cell` is one output row: a stable identity key, the
:class:`~repro.runner.spec.TrialSpec` batch backing the row (empty for
analytic experiments such as E3/E5/E8), and a ``build_row`` callback that
turns the cell's execution results into the row dict.  Because every seed
is drawn while cells are *built* (in the exact order the pre-registry
serial loops drew them), which cells later *execute* never perturbs any
other cell — that is what makes both the bit-identical golden rows and
the results store's cell-level resume possible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.runner import TrialSpec, iter_trials
from repro.runner.health import RunHealth, TrialFailure
from repro.simulation.trace import ExecutionResult

Row = Dict[str, Any]
CellBuilder = Callable[[Dict[str, Any], random.Random], List["Cell"]]
Finalizer = Callable[[List[Row], Dict[str, Any]], List[Row]]


@dataclass
class Cell:
    """One experiment cell: the trials behind one output row.

    Attributes:
        key: stable, JSON-serialisable identity of the cell within its run
            (e.g. ``("E2", 16)``); the results store uses it to recognise
            already-completed cells on resume.
        specs: the trial specs backing the row, in submission order.
            Analytic cells carry no specs and compute their row directly.
        build_row: maps the cell's results (aligned with ``specs``) to the
            row dict.  All randomness must come from seeds drawn at
            cell-build time, never at row-build time.
    """

    key: Tuple[Any, ...]
    specs: Tuple[TrialSpec, ...]
    build_row: Callable[[Sequence[ExecutionResult]], Row]


class RowStore:
    """The storage interface :meth:`Experiment.run` writes through.

    :class:`repro.results.RunStore` is the real implementation; the base
    class documents the contract and doubles as an in-memory null store.
    """

    def completed_rows(self) -> Dict[str, Row]:
        """Rows already on disk, keyed by :func:`cell_key_id`."""
        return {}

    def write_row(self, index: int, key: Tuple[Any, ...], row: Row) -> None:
        """Persist one freshly computed row."""

    def record_health(self, health: Optional["RunHealth"]) -> None:
        """Persist one execution's run-health ledger (no-op by default)."""


def cell_key_id(key: Sequence[Any]) -> str:
    """The canonical string identity of a cell key (JSON list syntax)."""
    import json

    return json.dumps(list(key))


@dataclass(frozen=True)
class Experiment:
    """A declarative experiment: parameter grid, cell expansion, schema.

    Attributes:
        name: canonical registry key ("E1" ... "E8").
        slug: human-readable alias ("feasibility", "exponential-rounds"...).
        title: one-line table title.
        description: what the experiment reproduces, for EXPERIMENTS.md.
        defaults: the full-size (paper-scale) parameter grid.  Always
            includes ``seed``, the master seed.
        quick_overrides: parameter overrides for ``--quick`` smoke runs.
        build_cells: expands resolved parameters into cells, drawing every
            per-trial seed from the master-seeded stream as it goes.
        row_schema: the exact key set of every row the experiment emits.
        finalize: optional synthesiser of extra rows (fits) computed from
            the data rows; re-applied when rendering stored runs, so
            synthetic rows are never persisted.
        parallel: whether the experiment fans trials out through
            :mod:`repro.runner` (False for the analytic experiments).
    """

    name: str
    slug: str
    title: str
    description: str
    defaults: Mapping[str, Any]
    quick_overrides: Mapping[str, Any]
    build_cells: CellBuilder
    row_schema: Tuple[str, ...]
    finalize: Optional[Finalizer] = None
    parallel: bool = True

    def resolve_params(self, params: Optional[Mapping[str, Any]] = None,
                       quick: bool = False) -> Dict[str, Any]:
        """Merge defaults, quick overrides and explicit parameters."""
        merged: Dict[str, Any] = dict(self.defaults)
        if quick:
            merged.update(self.quick_overrides)
        if params:
            unknown = set(params) - set(merged)
            if unknown:
                known = ", ".join(sorted(merged))
                raise ValueError(
                    f"unknown parameter(s) {sorted(unknown)} for "
                    f"{self.name}; known parameters: {known}")
            merged.update(params)
        return merged

    def cells(self, params: Optional[Mapping[str, Any]] = None,
              quick: bool = False) -> List[Cell]:
        """Expand the (resolved) parameter grid into cells."""
        merged = self.resolve_params(params, quick=quick)
        rng = random.Random(merged["seed"])
        return self.build_cells(merged, rng)

    def run(self, params: Optional[Mapping[str, Any]] = None, *,
            quick: bool = False, workers: Optional[int] = None,
            store: Optional[RowStore] = None,
            policy: Optional[Any] = None,
            health: Optional[RunHealth] = None,
            backend: Optional[str] = None,
            telemetry: Optional[Any] = None) -> List[Row]:
        """Run the experiment and return its rows.

        Cells whose rows the ``store`` already holds are skipped entirely
        (the resume path); the remaining cells' specs are submitted as
        one streamed batch — full worker fan-out, with each row built
        (and, with a store, written to disk) as soon as its cell's
        results arrive.  Rows are identical with or without a store
        because every seed is fixed at cell-build time.

        Execution always goes through the one executor
        (:class:`~repro.runner.supervisor.SupervisedRunner`): retries and
        broken-pool recovery are on by default, tunable via ``policy``.
        A cell whose trials exhausted every recovery rung yields no row —
        its failure is recorded in ``health`` (and, with a store, in the
        manifest's ``run_health`` block) instead of killing the run; a
        later resume retries exactly the missing cells.

        ``backend`` selects the execution backend: ``"batched"`` (or
        ``"auto"`` with numpy present) runs each vectorizable spec group
        as one chunk on the batched engine, with bit-identical results by
        contract.  Chaos applies to batched chunks too.

        ``telemetry`` attaches a :class:`~repro.telemetry.Telemetry`
        recorder: each pending cell's consumption becomes a ``cell``
        span and the expected trial total is gauged up front.  Rows are
        bit-identical with or without it.
        """
        from repro.runner.supervisor import ExecutionPolicy

        merged = self.resolve_params(params, quick=quick)
        rng = random.Random(merged["seed"])
        cells = self.build_cells(merged, rng)
        if policy is None:
            policy = ExecutionPolicy()
        if health is None:
            health = RunHealth()
        completed = store.completed_rows() if store is not None else {}
        pending = [(index, cell) for index, cell in enumerate(cells)
                   if cell_key_id(cell.key) not in completed]
        if telemetry is not None:
            telemetry.gauge("cells_total", len(cells))
            telemetry.gauge("trials_total", sum(
                len(cell.specs) for _, cell in pending))
        stream = iter_trials(
            [spec for _, cell in pending for spec in cell.specs],
            workers=workers, policy=policy, health=health,
            backend=backend, telemetry=telemetry)
        fresh: Dict[int, Row] = {}
        for index, cell in pending:
            if telemetry is not None:
                # Chunk/batch/trial spans recorded while this cell's
                # results are consumed nest under its span; a chunk
                # crossing cell boundaries books under the cell that
                # consumed its first spec (see PERFORMANCE.md).
                with telemetry.span("cell", cell=list(cell.key)):
                    chunk = [next(stream) for _ in cell.specs]
            else:
                chunk = [next(stream) for _ in cell.specs]
            if _cell_failed(chunk):
                # The failure is already in the health ledger; the cell
                # stays unwritten so a resume retries it.
                continue
            fresh[index] = cell.build_row(chunk)
            if store is not None:
                store.write_row(index, cell.key, fresh[index])
        rows: List[Row] = []
        for index, cell in enumerate(cells):
            stored = completed.get(cell_key_id(cell.key))
            row = fresh.get(index) if stored is None else stored
            if row is not None:
                rows.append(row)
        if store is not None:
            store.record_health(health)
        if self.finalize is not None:
            rows = rows + self.finalize(rows, merged)
        return rows


def _cell_failed(chunk: Sequence[Any]) -> bool:
    """Whether any trial in a cell's result chunk failed for good."""
    return any(isinstance(item, TrialFailure) for item in chunk)


__all__ = ["Cell", "Experiment", "Row", "RowStore", "cell_key_id"]
