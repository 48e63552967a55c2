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
fault is load-bearing.  :func:`save_counterexample` /
:func:`load_counterexample` persist schedules as JSON so campaigns can
check them in as first-class artifacts; :func:`shrink_and_save` is the
one shrink-then-persist step fuzz and search campaigns share, filing
artifacts under :data:`COUNTEREXAMPLE_DIR` of their run directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.adversaries.replay import PAD_ERROR, ReplayScheduleAdversary
from repro.protocols.base import ProtocolFactory
from repro.protocols.registry import get_protocol
from repro.simulation.engine import Engine
from repro.simulation.trace import ExecutionResult
from repro.simulation.windows import WindowSpec
from repro.verification.invariants import InvariantChecker, VerificationReport

COUNTEREXAMPLE_DIR = "counterexamples"
"""Subdirectory of a fuzz or search run holding shrunk violating schedules."""


@dataclass(frozen=True)
class ReplaySetup:
    """Everything besides the schedule needed to re-run an execution.

    Attributes:
        protocol: protocol registry name.
        n: number of processors.
        t: fault bound.
        inputs: the input bits.
        seed: the engine's processor-randomness seed.
        protocol_kwargs: extra protocol constructor arguments.
    """

    protocol: str
    n: int
    t: int
    inputs: Tuple[int, ...]
    seed: Optional[int] = None
    protocol_kwargs: Dict[str, Any] = field(default_factory=dict)


def replay_schedule(setup: ReplaySetup,
                    schedule: Sequence[WindowSpec]) -> ExecutionResult:
    """Re-execute a schedule from scratch, recording a fresh trace."""
    info = get_protocol(setup.protocol)
    factory = ProtocolFactory(info.protocol_cls, n=setup.n, t=setup.t,
                              **setup.protocol_kwargs)
    engine = Engine(factory, list(setup.inputs), seed=setup.seed,
                    record_trace=True)
    # The replay is capped at the schedule length, so the strict
    # no-padding adversary never runs out of windows.
    return engine.run(ReplayScheduleAdversary(schedule, pad=PAD_ERROR),
                      max_windows=len(schedule), stop_when="all")


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


def shrink_schedule(setup: ReplaySetup, schedule: Sequence[WindowSpec],
                    checker: Optional[InvariantChecker] = None,
                    max_replays: int = 2000) -> ShrinkResult:
    """Greedily minimize a schedule that violates an invariant.

    Args:
        setup: the execution context the schedule runs in.
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
        return checker.check(replay_schedule(setup, candidate).trace)

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
    everyone = frozenset(range(setup.n))
    full = tuple(everyone for _ in range(setup.n))
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


def shrink_and_save(setup: ReplaySetup, schedule: Sequence[WindowSpec],
                    path: Optional[str] = None,
                    checker: Optional[InvariantChecker] = None
                    ) -> ShrinkResult:
    """Shrink a violating schedule and, given ``path``, save the artifact.

    The minimized schedule and its violations go to ``path`` through
    :func:`save_counterexample`; without a path only the result returns.
    """
    shrunk = shrink_schedule(setup, schedule, checker=checker)
    if path is not None:
        save_counterexample(path, setup, shrunk.schedule, shrunk.violations)
    return shrunk


# ----------------------------------------------------------------------
# Persistence: schedules as JSON artifacts.
# ----------------------------------------------------------------------
def schedule_to_jsonable(schedule: Sequence[WindowSpec]) -> List[Dict]:
    """Encode a whole schedule as plain JSON data."""
    return [spec.to_jsonable() for spec in schedule]


def schedule_from_jsonable(data: Sequence[Dict]) -> List[WindowSpec]:
    """Decode a schedule from its JSON encoding."""
    return [WindowSpec.from_jsonable(entry) for entry in data]


def save_counterexample(path: str, setup: ReplaySetup,
                        schedule: Sequence[WindowSpec],
                        violations: Sequence[str]) -> None:
    """Write a self-contained counterexample artifact.

    The artifact carries the full replay context, so
    :func:`load_counterexample` followed by :func:`replay_schedule`
    reproduces the violation on a fresh checkout.
    """
    artifact = {
        "protocol": setup.protocol,
        "n": setup.n,
        "t": setup.t,
        "inputs": list(setup.inputs),
        "seed": setup.seed,
        "protocol_kwargs": dict(setup.protocol_kwargs),
        "violations": list(violations),
        "schedule": schedule_to_jsonable(schedule),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")


def parse_schedule_artifact(artifact: Dict[str, Any]
                            ) -> Tuple[ReplaySetup, List[WindowSpec]]:
    """Decode the core of any schedule artifact: (setup, schedule).

    This is the one place the shared artifact format (fuzz
    counterexamples, search best-schedule files) is parsed; extra keys
    are the caller's business.
    """
    setup = ReplaySetup(
        protocol=artifact["protocol"], n=artifact["n"], t=artifact["t"],
        inputs=tuple(artifact["inputs"]), seed=artifact["seed"],
        protocol_kwargs=dict(artifact.get("protocol_kwargs", {})))
    return setup, schedule_from_jsonable(artifact["schedule"])


def load_counterexample(path: str) -> Tuple[ReplaySetup, List[WindowSpec],
                                            List[str]]:
    """Load a counterexample artifact: (setup, schedule, violations)."""
    with open(path) as handle:
        artifact = json.load(handle)
    setup, schedule = parse_schedule_artifact(artifact)
    return setup, schedule, list(artifact.get("violations", ()))


__all__ = [
    "COUNTEREXAMPLE_DIR",
    "ReplaySetup",
    "replay_schedule",
    "ShrinkResult",
    "shrink_schedule",
    "shrink_and_save",
    "schedule_to_jsonable",
    "schedule_from_jsonable",
    "save_counterexample",
    "parse_schedule_artifact",
    "load_counterexample",
]
