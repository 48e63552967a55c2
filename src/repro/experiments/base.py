"""The declarative experiment model: cells, experiments, and the campaign loop.

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
analytic experiments such as E3/E5/E8), an optional per-trial reducer the
executor applies where each trial ran, and a ``build_row`` callback that
turns the cell's (reduced) execution results into the row dict.  Because
every seed is drawn while cells are *built* (in the exact order the
pre-registry serial loops drew them), which cells later *execute* never
perturbs any other cell — that is what makes both the bit-identical
golden rows and the results store's cell-level resume possible.

:func:`run_cells` is the one campaign loop.  Experiments, fuzz campaigns
(:mod:`repro.verification.fuzzer`, one cell per trial) and search
generations (:mod:`repro.search.campaign`, one cell per candidate) all
run through it: it skips the cells the store already holds, streams the
rest through the one executor, writes each row as its cell completes,
and turns a cell whose trials failed for good into a ``None`` row that a
resume retries.  Each caller records the run-health ledger and the
``trials_total`` gauge once per campaign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.runner import Reducer, TrialSpec, iter_trials
from repro.runner.health import RunHealth, TrialFailure

if TYPE_CHECKING:
    from repro.results.store import RunStore

Row = Dict[str, Any]
CellBuilder = Callable[[Dict[str, Any], random.Random], List["Cell"]]
Finalizer = Callable[[List[Row], Dict[str, Any]], List[Row]]


@dataclass
class Cell:
    """One campaign cell: the trials behind one output row.

    Attributes:
        key: stable, JSON-serialisable identity of the cell within its run
            (e.g. ``("E2", 16)``); the results store uses it to recognise
            already-completed cells on resume.
        specs: the trial specs backing the row, in submission order.
            Analytic cells carry no specs and compute their row directly.
        build_row: maps the cell's results (aligned with ``specs``, each
            already through ``reduce``) to the row dict.  All randomness
            must come from seeds drawn at cell-build time, never at
            row-build time.
        reduce: optional ``reduce(spec, result)`` applied to each trial's
            result where the trial ran, so a worker ships back only what
            ``build_row`` needs (a verdict instead of a whole trace).  It
            crosses the pool, so it must pickle: a module-level function
            or a ``functools.partial`` of one.
    """

    key: Tuple[Any, ...]
    specs: Tuple[TrialSpec, ...]
    build_row: Callable[[Sequence[Any]], Row]
    reduce: Optional[Reducer] = None


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
            store: Optional["RunStore"] = None,
            policy: Optional[Any] = None,
            health: Optional[RunHealth] = None,
            backend: Optional[str] = None,
            telemetry: Optional[Any] = None) -> List[Row]:
        """Run the experiment and return its rows.

        Builds the cells, runs them through :func:`run_cells` (see there
        for resume, failures and the keyword arguments), records the
        health ledger into the ``store`` once, and appends the finalizer
        rows.  A failed cell has no row; a later resume retries it.
        """
        merged = self.resolve_params(params, quick=quick)
        cells = self.build_cells(merged, random.Random(merged["seed"]))
        if health is None:
            health = RunHealth()
        completed = store.completed_rows() if store is not None else {}
        if telemetry is not None:
            telemetry.gauge("cells_total", len(cells))
            telemetry.gauge("trials_total", pending_trials(cells, completed))
        rows = [row for row in run_cells(
                    cells, completed, workers=workers, store=store,
                    policy=policy, health=health, backend=backend,
                    telemetry=telemetry)
                if row is not None]
        if store is not None:
            store.record_health(health)
        if self.finalize is not None:
            rows = rows + self.finalize(rows, merged)
        return rows


def pending_trials(cells: Sequence[Cell], completed: Mapping[str, Row]
                   ) -> int:
    """How many trials :func:`run_cells` will execute for ``cells``."""
    return sum(len(cell.specs) for _, cell in _pending(cells, completed))


def _pending(cells: Sequence[Cell], completed: Mapping[str, Row],
             start: int = 0) -> List[Tuple[int, Cell]]:
    """The cells ``completed`` does not hold, with their store indices."""
    return [(start + offset, cell) for offset, cell in enumerate(cells)
            if cell_key_id(cell.key) not in completed]


def run_cells(cells: Sequence[Cell], completed: Mapping[str, Row], *,
              start: int = 0, workers: Optional[int] = None,
              store: Optional["RunStore"] = None,
              policy: Optional[Any] = None,
              health: Optional[RunHealth] = None,
              backend: Optional[str] = None,
              telemetry: Optional[Any] = None) -> List[Optional[Row]]:
    """The campaign loop: run every cell not in ``completed``, stream rows.

    Cells whose rows ``completed`` holds (keyed by :func:`cell_key_id`)
    are skipped — the resume path.  The other cells' specs go to the one
    executor (:class:`~repro.runner.supervisor.SupervisedRunner`, whose
    default ``policy`` keeps retries and pool recovery on) as one
    streamed batch, each with its cell's ``reduce`` applied where the
    trial runs, and each row is built, and written to ``store`` at
    index ``start + position``, as soon as its cell's results arrive.
    The default backend vectorizes every spec group the batched engine
    admits, bit-identical by contract; ``backend="trial"`` runs every
    spec on the per-trial oracle.  A cell with a trial that failed for
    good yields ``None``: the failure is in ``health``, and the unwritten
    cell is retried on resume.  Recording ``health`` into the store is the
    caller's job, once per campaign.

    With ``telemetry``, a cell of more than one trial is consumed inside
    a ``cell`` span (a chunk crossing cells books under the cell that
    consumed its first spec).  A one-trial cell that runs per trial gets
    none, since its ``trial`` span already carries the cell key as
    ``tag``; one whose trial batches keeps its span, because a batched
    chunk records one ``batch`` span and no ``trial`` spans.

    Returns:
        One entry per cell, in order: the stored row, the fresh row, or
        ``None`` for a failed cell.
    """
    # Imported lazily: repro.batched builds on repro.runner, and the
    # executor below imports it anyway.
    from repro.batched.support import (BACKEND_BATCHED, resolve_backend,
                                       unsupported_reason)

    batched = resolve_backend(backend) == BACKEND_BATCHED
    pending = _pending(cells, completed, start)
    stream = iter_trials(
        [spec for _, cell in pending for spec in cell.specs],
        workers=workers, policy=policy, health=health, backend=backend,
        telemetry=telemetry,
        reducers=[cell.reduce for _, cell in pending for _ in cell.specs])
    fresh: Dict[int, Row] = {}
    for index, cell in pending:
        if telemetry is not None and (len(cell.specs) > 1 or (
                batched and len(cell.specs) == 1
                and unsupported_reason(cell.specs[0]) is None)):
            with telemetry.span("cell", cell=list(cell.key)):
                chunk = [next(stream) for _ in cell.specs]
        else:
            chunk = [next(stream) for _ in cell.specs]
        if any(isinstance(item, TrialFailure) for item in chunk):
            continue
        fresh[index] = cell.build_row(chunk)
        if store is not None:
            store.write_row(index, cell.key, fresh[index])
    return [completed.get(cell_key_id(cell.key), fresh.get(start + offset))
            for offset, cell in enumerate(cells)]


__all__ = ["Cell", "Experiment", "Row", "cell_key_id", "pending_trials",
           "run_cells"]
