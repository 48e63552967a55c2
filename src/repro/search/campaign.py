"""Search campaigns: seed-deterministic, parallel, resumable optimization.

A *campaign* optimizes a window schedule against one protocol toward one
objective with one strategy.  It runs in generations: the strategy
proposes a batch of candidate schedules, every candidate is evaluated as a
``replay-schedule`` trial fanned out through :mod:`repro.runner` (so
worker count changes wall-clock time only, never values), the scores feed
back into the strategy, repeat.  Each candidate is scored, and (with
``verify``) its trace re-checked by the independent
:class:`~repro.verification.invariants.InvariantChecker`, where its trial
ran: the cell's reducer (:func:`evaluate_candidate`) returns the score,
frontier and verdict without the trace.  The parent keeps the running
best and shrinks violating candidates into counterexample artifacts with
the :mod:`repro.verification.shrink` machinery.

Each generation is one call of the shared campaign loop
(:func:`repro.experiments.base.run_cells`), one cell per candidate, so
resume, streamed rows and failure isolation work exactly as for
experiment cells.  A candidate whose evaluation failed through every
recovery rung has no row: it scores ``-inf`` for the strategy and is
retried on resume.  Campaigns persist through
:class:`repro.results.RunStore` under the pseudo-experiment name
``"search"``: one row per candidate evaluation, streamed as evaluations
finish.  Because candidate genomes are a pure function of the campaign
seed and the observed scores, a resumed campaign re-derives the proposal
sequence and skips every evaluation the store already holds — kill/resume
is bit-identical to an uninterrupted run.
Every candidate runs in the campaign's one execution context,
:func:`campaign_setup` — a :class:`~repro.runner.TrialSpec` — and the
best-found schedule is written as ``best-schedule.json`` in the run
directory by the same artifact writer as the fuzz counterexamples
(:func:`repro.verification.shrink.save_schedule_artifact`), so
``repro replay`` can re-execute it anywhere.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.adversaries.fuzzing import (WindowSampler,
                                       fault_model_probabilities)
from repro.experiments.base import Cell, pending_trials, run_cells
from repro.protocols.registry import get_protocol, resolve_fault_bound
from repro.results.store import RunStore
from repro.runner import TrialSpec, derive_seed
from repro.runner.health import RunHealth
from repro.search.mutations import Schedule, is_admissible
from repro.search.objectives import OBJECTIVES, Objective, build_objective
from repro.search.strategies import (STRATEGIES, SearchStrategy,
                                     build_strategy)
from repro.simulation.trace import ExecutionResult
from repro.verification.invariants import InvariantChecker
from repro.verification.shrink import (COUNTEREXAMPLE_DIR, replay_spec,
                                       save_schedule_artifact,
                                       schedule_to_jsonable, shrink_schedule)
from repro.workloads.inputs import split, unanimous

SEARCH_EXPERIMENT = "search"
"""Results-store experiment name search campaigns are filed under."""

BEST_ARTIFACT = "best-schedule.json"
"""File name of the best-found schedule artifact inside a run directory."""

_ENGINE_SALT = 0xE9E9E9

ROW_SCHEMA: Tuple[str, ...] = (
    "generation", "candidate", "score", "undecided_windows", "decided",
    "windows", "total_resets", "ok", "violations", "best_score",
    "counterexample")
"""Column set of every search-campaign row."""


def _score_to_stored(score: float) -> Optional[float]:
    """Scores as stored in rows/artifacts: strict JSON, no ``Infinity``.

    The invariant-violation objective scores hits ``math.inf``; rows and
    artifacts encode that as ``null`` (the ``ok``/``violations`` columns
    carry the why) so every persisted file stays parseable by strict
    RFC-JSON tooling.
    """
    return score if math.isfinite(score) else None


def _score_from_stored(value: Optional[float]) -> float:
    """The inverse of :func:`_score_to_stored`."""
    return math.inf if value is None else value

_WORKLOADS = {
    "split": split,
    "unanimous-0": lambda n: unanimous(n, 0),
    "unanimous-1": lambda n: unanimous(n, 1),
}


def resolve_search_params(protocol: str = "reset-tolerant",
                          strategy: str = "hill-climb",
                          objective: str = "undecided-rounds",
                          generations: int = 25, population: int = 8,
                          windows: int = 240, seed: int = 0,
                          n: Optional[int] = None, t: Optional[int] = None,
                          workload: str = "split", verify: bool = True,
                          target_score: Optional[float] = None
                          ) -> Dict[str, Any]:
    """Fill in campaign defaults, returning the canonical parameter dict.

    The dict is what the results store digests, so two invocations with
    the same resolved parameters share one run directory (and resume).
    The evaluation inputs and engine seed are resolved here — candidates
    compete on one fixed execution context, which is what lets the search
    exploit replay determinism.

    Args:
        verify: re-check every candidate's trace with the independent
            invariant checker (and shrink violations into counterexample
            artifacts).  Disabling skips trace recording for objectives
            that do not need it, roughly halving evaluation cost.
        target_score: stop the campaign at the end of the first
            generation whose running best reaches this score (the
            allotted evaluation budget stays ``generations *
            population``; a hit simply stops spending it).
    """
    if n is None:
        n = 12
    t = resolve_fault_bound(protocol, n, t)
    if strategy not in STRATEGIES:
        known = ", ".join(sorted(STRATEGIES))
        raise ValueError(
            f"unknown search strategy {strategy!r}; known: {known}")
    if objective not in OBJECTIVES:
        known = ", ".join(sorted(OBJECTIVES))
        raise ValueError(
            f"unknown objective {objective!r}; known: {known}")
    if generations <= 0:
        raise ValueError(f"generations must be positive, got {generations}")
    if population <= 0:
        raise ValueError(f"population must be positive, got {population}")
    if windows <= 0:
        raise ValueError(f"windows must be positive, got {windows}")
    if workload not in _WORKLOADS:
        known = ", ".join(sorted(_WORKLOADS))
        raise ValueError(f"unknown workload {workload!r}; known: {known}")
    if objective == "invariant-violation" and not verify:
        raise ValueError(
            "the invariant-violation objective requires verify=True")
    # Constructing the objective validates protocol-specific requirements
    # (e.g. vote-margin needs the estimate_from_fingerprint hook) before
    # any run directory is created.
    build_objective(objective, protocol=protocol)
    inputs = "".join(str(bit) for bit in _WORKLOADS[workload](n))
    return {"protocol": protocol, "strategy": strategy,
            "objective": objective, "n": n, "t": t,
            "generations": generations, "population": population,
            "windows": windows, "seed": seed, "workload": workload,
            "inputs": inputs, "verify": bool(verify),
            "target_score": target_score,
            "engine_seed": derive_seed(seed, _ENGINE_SALT) & 0xFFFFFFFF}


def campaign_sampler(params: Dict[str, Any]) -> WindowSampler:
    """The window-sampling distribution, following the fault model.

    Resets or crashes follow the protocol's fault model by the same rule
    fuzz campaigns use (:func:`fault_model_probabilities`).
    """
    return WindowSampler(
        n=params["n"], t=params["t"],
        **fault_model_probabilities(
            get_protocol(params["protocol"]).fault_model))


def campaign_strategy(params: Dict[str, Any]) -> SearchStrategy:
    """The (freshly seeded) strategy instance of a campaign."""
    return build_strategy(params["strategy"], sampler=campaign_sampler(params),
                          horizon=params["windows"],
                          population=params["population"],
                          seed=params["seed"])


def campaign_objective(params: Dict[str, Any]) -> Objective:
    """The objective instance of a campaign."""
    return build_objective(params["objective"], protocol=params["protocol"])


def campaign_setup(params: Dict[str, Any]) -> TrialSpec:
    """The fixed execution context every candidate is evaluated in: the
    replay of an empty schedule."""
    return replay_spec(TrialSpec(
        protocol=params["protocol"], adversary="replay-schedule",
        n=params["n"], t=params["t"],
        inputs=tuple(int(bit) for bit in params["inputs"]),
        seed=params["engine_seed"]), ())


def candidate_spec(params: Dict[str, Any], objective: Objective,
                   schedule: Schedule, generation: int,
                   candidate: int) -> TrialSpec:
    """The runner trial evaluating one candidate schedule."""
    return replace(
        campaign_setup(params),
        adversary_kwargs={"schedule": schedule_to_jsonable(schedule)},
        max_windows=params["windows"], stop_when=objective.stop_when,
        record_trace=params.get("verify", True) or objective.needs_trace,
        record_configurations=objective.needs_configurations,
        tag=(SEARCH_EXPERIMENT, generation, candidate))


@dataclass
class SearchReport:
    """The outcome of one search campaign.

    Attributes:
        params: the resolved campaign parameters.
        rows: one row dict per candidate evaluation, in (generation,
            candidate) order.
        best_score: the best objective score found.
        best_schedule: the best-found schedule (``None`` only for empty
            campaigns).
        best_generation: the generation the best candidate appeared in.
        run_dir: the results-store directory (``None`` for unstored runs).
        best_artifact: path of the saved best-schedule artifact, if any.
        computed_evaluations: evaluations actually executed this run (the
            rest came cached from the store).
        failed_evaluations: evaluations that produced no row because
            execution kept failing through every recovery rung (their
            candidates score ``-inf`` for the strategy and are retried by
            a resumed campaign).
    """

    params: Dict[str, Any]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    best_score: float = -math.inf
    best_schedule: Optional[Schedule] = None
    best_generation: Optional[int] = None
    run_dir: Optional[str] = None
    best_artifact: Optional[str] = None
    computed_evaluations: int = 0
    failed_evaluations: int = 0

    @property
    def findings(self) -> List[Dict[str, Any]]:
        """The invariant-violating rows only (``ok is None`` = unchecked)."""
        return [row for row in self.rows if row["ok"] is False]

    def generation_summary(self) -> List[Dict[str, Any]]:
        """One row per generation: best / mean score, running best."""
        summary: List[Dict[str, Any]] = []
        by_generation: Dict[int, List[Dict[str, Any]]] = {}
        for row in self.rows:
            by_generation.setdefault(row["generation"], []).append(row)
        running = -math.inf
        for generation in sorted(by_generation):
            rows = by_generation[generation]
            scores = [_score_from_stored(row["score"]) for row in rows]
            running = max(running, max(scores))
            finite = [score for score in scores if math.isfinite(score)]
            summary.append({
                "generation": generation,
                "candidates": len(rows),
                "best_score": max(scores),
                "mean_score": (sum(finite) / len(finite)
                               if finite else math.inf),
                "best_so_far": running,
                "violations": sum(1 for row in rows
                                  if row["ok"] is False),
            })
        return summary


class Evaluation(NamedTuple):
    """One candidate as it leaves the worker: its result without trace or
    configurations, its score and frontier, and (with ``verify``) the
    trace's verdict (``ok is None`` = unchecked)."""

    result: ExecutionResult
    score: float
    frontier: int
    ok: Optional[bool]
    violations: str


def evaluate_candidate(objective: Objective, verify: bool, spec: TrialSpec,
                       result: ExecutionResult) -> Evaluation:
    """A search cell's reducer: score and check where the trial ran."""
    if verify:
        report = InvariantChecker().check_result(result)
        ok: Optional[bool] = report.ok
        violations = report.summary()
        score = objective.score_checked(result, report)
    else:
        ok, violations = None, "-"  # not checked (verify=False)
        score = objective.score(result)
    return Evaluation(replace(result, trace=None, configurations=[]),
                      score, objective.frontier(result), ok, violations)


def _evaluation_row(params: Dict[str, Any], store: Optional[RunStore],
                    best_so_far: float, generation: int, candidate: int,
                    schedule: Schedule,
                    results: Sequence[Evaluation]) -> Dict[str, Any]:
    """The row of one candidate's one-result cell.

    A violating candidate of a stored campaign is shrunk into a
    counterexample artifact before its row is written.
    """
    ((result, score, frontier, ok, violations),) = results
    row = {
        "generation": generation,
        "candidate": candidate,
        "score": _score_to_stored(score),
        "undecided_windows": frontier,
        "decided": result.decided,
        "windows": result.windows_elapsed,
        "total_resets": result.total_resets,
        "ok": ok,
        "violations": violations,
        "best_score": _score_to_stored(max(best_so_far, score)),
        "counterexample": None,
    }
    if ok is False and store is not None:
        relative = os.path.join(
            COUNTEREXAMPLE_DIR, f"gen-{generation}-cand-{candidate}.json")
        setup = campaign_setup(params)
        shrunk = shrink_schedule(setup, schedule)
        save_schedule_artifact(store.artifact_path(relative), setup,
                               shrunk.schedule, shrunk.violations)
        row["counterexample"] = relative
    return row


def run_search_campaign(params: Dict[str, Any],
                        workers: Optional[int] = None,
                        store: Optional[RunStore] = None,
                        policy: Optional[Any] = None,
                        health: Optional[RunHealth] = None,
                        backend: Optional[str] = None,
                        telemetry: Optional[Any] = None) -> SearchReport:
    """Run (or resume) a search campaign.

    Args:
        params: resolved parameters from :func:`resolve_search_params`.
        workers: worker processes for the per-generation evaluation
            fan-out (0 = serial).
        store: an open results store; evaluations whose rows it already
            holds are skipped (their scores feed the strategy from cache),
            and the best-schedule artifact is written into it.
        policy, health, backend, telemetry: as for
            :func:`repro.experiments.base.run_cells`; the health ledger
            is recorded into the store once, at the end.  With
            telemetry, each generation becomes a ``generation`` span and
            the evaluation budget is gauged up front.
    """
    if health is None:
        health = RunHealth()
    strategy = campaign_strategy(params)
    objective = campaign_objective(params)
    evaluate = partial(evaluate_candidate, objective,
                       params.get("verify", True))
    completed = store.completed_rows() if store is not None else {}
    report = SearchReport(
        params=params,
        run_dir=store.path if store is not None else None)
    best_so_far = -math.inf
    if telemetry is not None:
        telemetry.gauge("trials_total",
                        params["generations"] * params["population"])
    for generation in range(params["generations"]):
        genomes = strategy.propose(generation)
        assert all(is_admissible(genome, params["n"], params["t"])
                   for genome in genomes), \
            "strategy proposed an inadmissible schedule"
        row = partial(_evaluation_row, params, store, best_so_far,
                      generation)
        cells = [Cell(key=(SEARCH_EXPERIMENT, generation, candidate),
                      specs=(candidate_spec(params, objective, genome,
                                            generation, candidate),),
                      build_row=partial(row, candidate, genome),
                      reduce=evaluate)
                 for candidate, genome in enumerate(genomes)]
        pending = pending_trials(cells, completed)
        span = (telemetry.span("generation", generation=generation,
                               candidates=pending)
                if telemetry is not None else nullcontext())
        with span:
            rows = run_cells(cells, completed,
                             start=generation * params["population"],
                             workers=workers, store=store, policy=policy,
                             health=health, backend=backend,
                             telemetry=telemetry)
        failed = rows.count(None)
        report.failed_evaluations += failed
        report.computed_evaluations += pending - failed
        # A failed candidate scores -inf: it never becomes the best, and
        # strategies treat it exactly like a maximally bad schedule.
        scores = [-math.inf if row is None
                  else _score_from_stored(row["score"]) for row in rows]
        frontiers = [0 if row is None else int(row["undecided_windows"])
                     for row in rows]
        best_so_far = max(best_so_far, max(scores))
        strategy.observe(generation, genomes, scores, frontiers)
        report.rows.extend(row for row in rows if row is not None)
        target = params.get("target_score")
        if target is not None and best_so_far >= target:
            break  # target hit: stop spending the remaining budget
    if store is not None:
        store.record_health(health)
    report.best_score = strategy.best_score
    report.best_schedule = strategy.best_schedule
    report.best_generation = strategy.best_generation
    if store is not None and report.best_schedule is not None:
        path = store.artifact_path(BEST_ARTIFACT)
        save_schedule_artifact(
            path, campaign_setup(params), report.best_schedule, [],
            objective=params["objective"], strategy=params["strategy"],
            score=_score_to_stored(report.best_score),
            generation=report.best_generation)
        report.best_artifact = path
    return report


__all__ = [
    "SEARCH_EXPERIMENT",
    "BEST_ARTIFACT",
    "COUNTEREXAMPLE_DIR",
    "ROW_SCHEMA",
    "resolve_search_params",
    "campaign_sampler",
    "campaign_strategy",
    "campaign_objective",
    "campaign_setup",
    "candidate_spec",
    "Evaluation",
    "evaluate_candidate",
    "SearchReport",
    "run_search_campaign",
]
