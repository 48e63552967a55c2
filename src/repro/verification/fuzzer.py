"""Fuzz campaigns: seed-deterministic adversarial schedule fuzzing at scale.

A *campaign* is ``trials`` independent executions of one protocol, each
under a freshly seeded schedule fuzzer
(:class:`~repro.adversaries.fuzzing.ScheduleFuzzer` on the window engine,
:class:`~repro.adversaries.fuzzing.StepFuzzer` on the step engine), each
recording a full trace, each trace re-checked by the independent
:class:`~repro.verification.invariants.InvariantChecker`.  Trials fan out
through :mod:`repro.runner` exactly like experiment cells, so worker count
affects wall-clock time only — ``repro fuzz --trials 200 --seed 0`` yields
bit-identical findings at ``--workers 0``, ``1`` and ``4``.  The check
runs where the trial ran (the cell's reducer, :func:`check_trial`): a
worker returns the result without its trace plus the verdict, so traces
never cross the pool, and the parent only builds and stores rows.

A campaign is one cell per trial of the shared campaign loop
(:func:`repro.experiments.base.run_cells`), so resume, streamed rows and
failure isolation work exactly as for experiment cells.  Campaigns
persist through :class:`repro.results.RunStore` under the
pseudo-experiment name ``"fuzz"``: one row per trial, streamed as trials
finish, so an interrupted campaign resumes where it stopped; a trial
that failed through every recovery rung has no row and is retried on
resume.  Violating trials are (optionally) minimized by
:mod:`repro.verification.shrink`, replaying in the trial's own
:class:`~repro.runner.TrialSpec`, and written as self-contained
schedule artifacts under ``<run_dir>/counterexamples/``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.adversaries.fuzzing import (ScheduleFuzzer, StepFuzzer,
                                       fault_model_probabilities)
from repro.experiments.base import Cell, pending_trials, run_cells
from repro.protocols.registry import get_protocol, resolve_fault_bound
from repro.results.store import RunStore
from repro.runner import STEP_ENGINE, WINDOW_ENGINE, TrialSpec, derive_seed
from repro.runner.health import RunHealth
from repro.simulation.trace import ExecutionResult
from repro.verification.invariants import InvariantChecker
from repro.verification.shrink import (COUNTEREXAMPLE_DIR,
                                       save_schedule_artifact,
                                       shrink_schedule)

FUZZ_EXPERIMENT = "fuzz"
"""Results-store experiment name fuzz campaigns are filed under."""

ROW_SCHEMA: Tuple[str, ...] = (
    "trial", "protocol", "engine", "n", "t", "inputs", "engine_seed",
    "windows", "steps", "decided", "total_resets", "ok", "violations",
    "minimized_windows", "counterexample")
"""Column set of every fuzz-campaign row."""


def resolve_fuzz_params(protocol: str = "reset-tolerant",
                        trials: int = 100, seed: int = 0,
                        n: Optional[int] = None, t: Optional[int] = None,
                        max_windows: int = 60, max_steps: int = 6000
                        ) -> Dict[str, Any]:
    """Fill in campaign defaults, returning the canonical parameter dict.

    The dict is what the results store digests, so two invocations with
    the same resolved parameters share one run directory (and resume).

    The engine follows the fault model: Byzantine protocols fuzz on the
    step engine (per-message corruption needs step granularity),
    everything else on the acceptable-window engine.  The fault placements
    follow the model too — resets for the strongly adaptive model, crashes
    for the crash model, equivocation for the Byzantine model.
    """
    info = get_protocol(protocol)
    engine = (STEP_ENGINE if "byzantine" in info.fault_model.lower()
              else WINDOW_ENGINE)
    if n is None:
        n = 9 if engine == WINDOW_ENGINE else 7
    t = resolve_fault_bound(protocol, n, t)
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    return {"protocol": protocol, "engine": engine, "n": n, "t": t,
            "trials": trials, "seed": seed, "max_windows": max_windows,
            "max_steps": max_steps}


def fuzz_trial_spec(params: Dict[str, Any], index: int) -> TrialSpec:
    """The (deterministic) specification of one campaign trial.

    Every draw comes from a per-trial stream seeded by
    :func:`repro.runner.derive_seed`, in a fixed order (inputs, adversary
    seed, engine seed), so trial ``index`` of a campaign is the same
    execution no matter which worker runs it, whether the campaign was
    resumed, or whether other trials were skipped.
    """
    rng = random.Random(derive_seed(params["seed"], index))
    n, t = params["n"], params["t"]
    inputs = tuple(rng.getrandbits(1) for _ in range(n))
    adversary_seed = rng.getrandbits(32)
    engine_seed = rng.getrandbits(32)
    if params["engine"] == WINDOW_ENGINE:
        # Fault placements follow the model under test.
        adversary_kwargs: Dict[str, Any] = {
            "seed": adversary_seed,
            **fault_model_probabilities(
                get_protocol(params["protocol"]).fault_model)}
        return TrialSpec(
            protocol=params["protocol"], adversary="schedule-fuzzer",
            n=n, t=t, inputs=inputs, seed=engine_seed,
            adversary_kwargs=adversary_kwargs,
            max_windows=params["max_windows"], stop_when="all",
            record_trace=True, tag=(FUZZ_EXPERIMENT, index))
    corrupted = tuple(range(t))
    return TrialSpec(
        protocol=params["protocol"], adversary="step-fuzzer",
        n=n, t=t, inputs=inputs, seed=engine_seed,
        adversary_kwargs={"seed": adversary_seed, "corrupted": corrupted,
                          "strategy": "equivocate"},
        engine=STEP_ENGINE, max_steps=params["max_steps"], stop_when="all",
        record_trace=True, tag=(FUZZ_EXPERIMENT, index))


def _trial_checker(spec: TrialSpec) -> InvariantChecker:
    corrupted = spec.adversary_kwargs.get("corrupted", ())
    return InvariantChecker(corrupted=corrupted)


class CheckedTrial(NamedTuple):
    """One fuzz trial as it leaves the worker: its result with the trace
    dropped, and the trace's verdict."""

    result: ExecutionResult
    ok: bool
    violations: str


def check_trial(spec: TrialSpec, result: ExecutionResult) -> CheckedTrial:
    """A fuzz cell's reducer: check the trace where the trial ran.

    A recorded Bracha trace pickles to about 66 KB (trial 0 of
    ``--seed 1``: 65,765 B; the longest of its first ten trials: 134 KB);
    the checked result without it, to about 460 bytes.
    """
    report = _trial_checker(spec).check_result(result)
    return CheckedTrial(replace(result, trace=None), report.ok,
                        report.summary())


def _trial_row(params: Dict[str, Any], index: int, spec: TrialSpec,
               results: Sequence[CheckedTrial]) -> Dict[str, Any]:
    """The row of one trial: its one-result cell, checked in the worker."""
    ((result, ok, violations),) = results
    return {
        "trial": index,
        "protocol": params["protocol"],
        "engine": params["engine"],
        "n": params["n"],
        "t": params["t"],
        "inputs": "".join(str(bit) for bit in spec.inputs),
        "engine_seed": spec.seed,
        "windows": result.windows_elapsed,
        "steps": result.steps_elapsed,
        "decided": result.decided,
        "total_resets": result.total_resets,
        "ok": ok,
        "violations": violations,
        "minimized_windows": None,
        "counterexample": None,
    }


@dataclass
class FuzzReport:
    """The outcome of one fuzz campaign.

    Attributes:
        params: the resolved campaign parameters.
        rows: one row dict per trial, in trial order.
        run_dir: the results-store directory (``None`` for unstored runs).
        computed_trials: trials actually executed this run (the rest came
            cached from the store).
        minimized_trials: findings minimized this run.
        failed_trials: trials that produced no row because execution kept
            failing through every recovery rung (recorded in the run's
            health ledger; a resumed campaign retries them).
    """

    params: Dict[str, Any]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    run_dir: Optional[str] = None
    computed_trials: int = 0
    minimized_trials: int = 0
    failed_trials: int = 0

    @property
    def findings(self) -> List[Dict[str, Any]]:
        """The violating rows only."""
        return [row for row in self.rows if not row["ok"]]

    @property
    def clean(self) -> bool:
        """Whether every trial satisfied every invariant."""
        return not self.findings


def minimize_finding(params: Dict[str, Any], index: int,
                     artifact_path: Optional[str] = None
                     ) -> Tuple[int, List[str]]:
    """Re-run one violating trial, shrink its schedule, save the artifact.

    Works from the trial index alone (specs are derivable), so resumed
    campaigns can minimize findings whose executions happened in an
    earlier process.  The shrink replays run in the trial's own spec
    context, and the artifact at ``artifact_path`` (if given) records it.
    Only window-engine trials carry a replayable window schedule;
    step-engine findings are reported unminimized.

    Returns:
        ``(minimized_window_count, violations)``.
    """
    if params["engine"] != WINDOW_ENGINE:
        raise ValueError("only window-engine findings can be minimized")
    from repro.runner import execute_trial

    spec = fuzz_trial_spec(params, index)
    result = execute_trial(spec)
    assert result.trace is not None
    shrunk = shrink_schedule(spec, result.trace.windows,
                             checker=_trial_checker(spec))
    if artifact_path is not None:
        save_schedule_artifact(artifact_path, spec, shrunk.schedule,
                               shrunk.violations)
    return len(shrunk.schedule), shrunk.violations


def fuzz_cell(params: Dict[str, Any], index: int) -> Cell:
    """Trial ``index`` of a campaign as a one-trial cell of the run loop."""
    spec = fuzz_trial_spec(params, index)
    return Cell(key=(FUZZ_EXPERIMENT, index), specs=(spec,),
                build_row=partial(_trial_row, params, index, spec),
                reduce=check_trial)


def run_fuzz_campaign(params: Dict[str, Any],
                      workers: Optional[int] = None,
                      store: Optional[RunStore] = None,
                      minimize: bool = False,
                      policy: Optional[Any] = None,
                      health: Optional[RunHealth] = None,
                      backend: Optional[str] = None,
                      telemetry: Optional[Any] = None) -> FuzzReport:
    """Run (or resume) a fuzz campaign.

    Args:
        params: resolved parameters from :func:`resolve_fuzz_params`.
        workers: worker processes for the trial fan-out (0 = serial).
        store: an open results store; trials whose rows it already holds
            are skipped, exactly like experiment cells.
        minimize: shrink every violating window-engine trial and persist
            the minimized schedule as a counterexample artifact (requires
            a store for the artifact files; unstored campaigns record the
            minimized size only).
        policy, health, backend, telemetry: as for
            :func:`repro.experiments.base.run_cells`; the health ledger
            is recorded into the store once, at the end.
    """
    if health is None:
        health = RunHealth()
    cells = [fuzz_cell(params, index) for index in range(params["trials"])]
    completed = store.completed_rows() if store is not None else {}
    pending = pending_trials(cells, completed)
    if telemetry is not None:
        telemetry.gauge("trials_total", pending)
    rows = run_cells(cells, completed, workers=workers, store=store,
                     policy=policy, health=health, backend=backend,
                     telemetry=telemetry)
    if store is not None:
        store.record_health(health)
    failed = rows.count(None)
    report = FuzzReport(params=params,
                        rows=[row for row in rows if row is not None],
                        run_dir=store.path if store is not None else None,
                        computed_trials=pending - failed,
                        failed_trials=failed)
    if minimize and params["engine"] == WINDOW_ENGINE:
        for row in report.findings:
            if row.get("minimized_windows") is not None:
                continue  # already minimized in a previous (resumed) run
            report.minimized_trials += 1
            relative = os.path.join(COUNTEREXAMPLE_DIR,
                                    f"trial-{row['trial']}.json")
            artifact = (store.artifact_path(relative)
                        if store is not None else None)
            row["minimized_windows"], _ = minimize_finding(
                params, row["trial"], artifact)
            if store is not None:
                row["counterexample"] = relative
                # Rewriting the row appends a fresh line; the loader keeps
                # the last record per key, so the minimized row wins.
                store.write_row(row["trial"],
                                (FUZZ_EXPERIMENT, row["trial"]), row)
    return report


__all__ = [
    "FUZZ_EXPERIMENT",
    "COUNTEREXAMPLE_DIR",
    "ROW_SCHEMA",
    "ScheduleFuzzer",
    "StepFuzzer",
    "resolve_fuzz_params",
    "fuzz_trial_spec",
    "fuzz_cell",
    "CheckedTrial",
    "check_trial",
    "FuzzReport",
    "run_fuzz_campaign",
    "minimize_finding",
]
