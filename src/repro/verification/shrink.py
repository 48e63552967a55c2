"""Counterexample minimization: shrink a violating schedule to a reproducer.

A fuzz campaign that finds an invariant violation hands back a *schedule* —
the concrete list of :class:`~repro.simulation.windows.WindowSpec` objects
the fuzzer played.  Because the engine is deterministic given the
processor seed and the schedule, replaying that list reproduces the
violation exactly (the fuzzer's adaptivity is irrelevant once the choices
are written down).  :func:`shrink_schedule` then minimizes it greedily:

1. *prefix truncation* — binary-search the shortest violating prefix
   (violations are monotone in the prefix: events only accumulate);
2. *window removal* — repeatedly try dropping each remaining window
   (classic greedy ddmin at chunk size one, which is where delta
   debugging converges anyway for the short schedules step 1 leaves);
3. *window simplification* — per window, try clearing the reset, crash
   and deliver-last sets and filling every sender set back to "everyone"
   (the benign window), keeping each simplification that still violates.

The result is a short, mostly-benign schedule in which every remaining
fault is load-bearing.

A replay is an ordinary trial: :func:`replay_spec` turns any window
:class:`~repro.runner.spec.TrialSpec` into the ``replay-schedule`` trial
of a given schedule in the same context (protocol, size, inputs, engine
seed), and :func:`replay_schedule` executes it.
:func:`save_schedule_artifact` / :func:`load_schedule_artifact` are the
one writer and the one reader of the schedule artifact format shared by
fuzz counterexamples (filed under :data:`COUNTEREXAMPLE_DIR` of a run
directory) and search ``best-schedule.json`` files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runner.spec import WINDOW_ENGINE, TrialSpec, execute_trial
from repro.simulation.trace import ExecutionResult
from repro.simulation.windows import WindowSpec
from repro.verification.invariants import InvariantChecker, VerificationReport

COUNTEREXAMPLE_DIR = "counterexamples"
"""Subdirectory of a fuzz or search run holding shrunk violating schedules."""


def replay_spec(spec: TrialSpec, schedule: Sequence[WindowSpec]) -> TrialSpec:
    """The trial replaying ``schedule`` in ``spec``'s execution context.

    The replay runs on the window engine, exactly ``len(schedule)``
    windows (so the replayer never pads), until every processor decided,
    and records its trace for the invariant checker.
    """
    return replace(spec, adversary="replay-schedule",
                   adversary_kwargs={"schedule":
                                     schedule_to_jsonable(schedule)},
                   engine=WINDOW_ENGINE, max_windows=len(schedule),
                   stop_when="all", record_trace=True,
                   record_configurations=False)


def replay_schedule(spec: TrialSpec,
                    schedule: Sequence[WindowSpec]) -> ExecutionResult:
    """Re-execute a schedule from scratch, recording a fresh trace."""
    return execute_trial(replay_spec(spec, schedule))


@dataclass
class ShrinkResult:
    """The outcome of minimizing one violating schedule.

    Attributes:
        schedule: the minimized schedule (still violating).
        violations: the violations the minimized schedule exhibits.
        original_windows: schedule length before shrinking.
        replays: how many replays the minimization spent.
    """

    schedule: List[WindowSpec]
    violations: List[str]
    original_windows: int
    replays: int


def shrink_schedule(spec: TrialSpec, schedule: Sequence[WindowSpec],
                    checker: Optional[InvariantChecker] = None,
                    max_replays: int = 2000) -> ShrinkResult:
    """Greedily minimize a schedule that violates an invariant.

    Args:
        spec: the execution context the schedule runs in (any window
            trial spec; see :func:`replay_spec`).
        schedule: a violating schedule (as recorded in a fuzz trace).
        checker: the invariant checker defining "violating"; defaults to
            a fresh :class:`InvariantChecker` with no corrupted set.
        max_replays: hard cap on replays; minimization stops early (with
            whatever it has) once spent.

    Raises:
        ValueError: when the input schedule does not violate anything —
            there is nothing to shrink.
    """
    checker = checker or InvariantChecker()
    replays = 0

    def report_for(candidate: Sequence[WindowSpec]) -> VerificationReport:
        nonlocal replays
        replays += 1
        return checker.check(replay_schedule(spec, candidate).trace)

    def violating(candidate: Sequence[WindowSpec]) -> bool:
        return bool(candidate) and not report_for(candidate).ok

    current = list(schedule)
    if not violating(current):
        raise ValueError("schedule does not violate any invariant; "
                         "nothing to shrink")

    # Step 1: shortest violating prefix (monotone, so binary search).
    low, high = 1, len(current)
    while low < high and replays < max_replays:
        middle = (low + high) // 2
        if violating(current[:middle]):
            high = middle
        else:
            low = middle + 1
    current = current[:high]

    # Step 2: greedy removal of interior windows until a fixpoint.
    changed = True
    while changed and replays < max_replays:
        changed = False
        index = len(current) - 1
        while index >= 0 and replays < max_replays:
            candidate = current[:index] + current[index + 1:]
            if violating(candidate):
                current = candidate
                changed = True
            index -= 1

    # Step 3: simplify the surviving windows one at a time.
    everyone = frozenset(range(spec.n))
    full = tuple(everyone for _ in range(spec.n))
    for index in range(len(current)):
        if replays >= max_replays:
            break
        for simplified in (
                replace(current[index], deliver_last=frozenset()),
                replace(current[index], crashes=frozenset()),
                replace(current[index], resets=frozenset()),
                replace(current[index], senders_for=full)):
            if simplified == current[index]:
                continue
            candidate = list(current)
            candidate[index] = simplified
            if violating(candidate):
                current = candidate

    final = report_for(current)
    return ShrinkResult(
        schedule=current,
        violations=[str(violation) for violation in final.violations],
        original_windows=len(schedule),
        replays=replays)


# ----------------------------------------------------------------------
# Persistence: schedules as JSON artifacts.
# ----------------------------------------------------------------------
def schedule_to_jsonable(schedule: Sequence[WindowSpec]) -> List[Dict]:
    """Encode a whole schedule as plain JSON data."""
    return [spec.to_jsonable() for spec in schedule]


def schedule_from_jsonable(data: Sequence[Dict]) -> List[WindowSpec]:
    """Decode a schedule from its JSON encoding."""
    return [WindowSpec.from_jsonable(entry) for entry in data]


def save_schedule_artifact(path: str, spec: TrialSpec,
                           schedule: Sequence[WindowSpec],
                           violations: Sequence[str],
                           **provenance: Any) -> None:
    """Write a self-contained schedule artifact.

    The artifact carries ``spec``'s execution context, so
    :func:`load_schedule_artifact` followed by
    :func:`~repro.runner.spec.execute_trial` re-runs the schedule on a
    fresh checkout.  ``provenance`` keys (a search's objective, strategy,
    score and generation) are stored alongside; every value must be
    strict JSON.
    """
    artifact = {
        "protocol": spec.protocol,
        "n": spec.n,
        "t": spec.t,
        "inputs": list(spec.inputs),
        "seed": spec.seed,
        "protocol_kwargs": dict(spec.protocol_kwargs),
        "violations": list(violations),
        "schedule": schedule_to_jsonable(schedule),
        **provenance,
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True,
                  allow_nan=False)
        handle.write("\n")


def load_schedule_artifact(path: str) -> Tuple[TrialSpec, List[WindowSpec],
                                               Dict[str, Any]]:
    """Load a schedule artifact: (replay spec, schedule, artifact dict).

    Fuzz counterexamples and search best-schedule files share the format;
    their extra keys (``violations``, provenance) come back in the dict.
    """
    with open(path) as handle:
        artifact = json.load(handle)
    schedule = schedule_from_jsonable(artifact["schedule"])
    context = TrialSpec(
        protocol=artifact["protocol"], adversary="replay-schedule",
        n=artifact["n"], t=artifact["t"], inputs=artifact["inputs"],
        seed=artifact["seed"],
        protocol_kwargs=dict(artifact.get("protocol_kwargs", {})))
    return replay_spec(context, schedule), schedule, artifact


__all__ = [
    "COUNTEREXAMPLE_DIR",
    "replay_spec",
    "replay_schedule",
    "ShrinkResult",
    "shrink_schedule",
    "schedule_to_jsonable",
    "schedule_from_jsonable",
    "save_schedule_artifact",
    "load_schedule_artifact",
]
