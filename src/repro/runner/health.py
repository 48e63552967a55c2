"""Run-health accounting: what the resilient executor survived.

A :class:`RunHealth` instance rides along one execution (an experiment
run, a fuzz campaign, a search campaign) and counts every recovery
action the supervising executor took — retries, pool rebuilds, watchdog
timeouts, quarantined trials, torn row writes — plus the trials that
ultimately could not be executed (:class:`TrialFailure`).  The results
store persists the block into ``manifest.json`` under ``run_health``
(accumulating across resumed runs) and ``repro show`` surfaces it, so a
run that survived faults says so instead of silently looking identical
to an untroubled one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.runner.spec import TrialSpec

_COUNTERS = ("retries", "pool_rebuilds", "timeouts", "quarantined",
             "torn_writes")


@dataclass(frozen=True)
class TrialFailure:
    """A trial the executor gave up on, yielded in place of its result.

    The runner yields exactly one item per submitted spec; a spec whose
    execution kept failing after every retry and the serial quarantine
    yields one of these instead of an
    :class:`~repro.simulation.trace.ExecutionResult`.  Consumers convert
    it into a recorded failure row instead of dying.

    Attributes:
        spec: the spec that failed.
        error: ``repr`` of the last exception.
        attempts: how many executions were attempted in total.
    """

    spec: TrialSpec
    error: str
    attempts: int

    def to_jsonable(self) -> Dict[str, Any]:
        from repro.faults.injector import spec_fingerprint

        tag = self.spec.tag
        return {
            "tag": list(tag) if isinstance(tag, tuple) else tag,
            "fingerprint": spec_fingerprint(self.spec),
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class RunHealth:
    """Recovery-action counters plus the recorded failures of one run.

    Attributes:
        retries: chunk/trial re-executions after a failure.
        pool_rebuilds: worker pools torn down and rebuilt (broken pool
            or watchdog stall).
        timeouts: watchdog windows that elapsed with no progress.
        quarantined: trials re-executed serially in quarantine after
            their chunk exhausted its retry budget.
        torn_writes: row writes the store observed as torn (and
            recovered by rewriting).
        failures: JSON-able records of trials that never produced a
            result (see :meth:`TrialFailure.to_jsonable`).
    """

    retries: int = 0
    pool_rebuilds: int = 0
    timeouts: int = 0
    quarantined: int = 0
    torn_writes: int = 0
    failures: List[Dict[str, Any]] = field(default_factory=list)

    def record_failure(self, failure: TrialFailure) -> None:
        self.failures.append(failure.to_jsonable())

    @property
    def clean(self) -> bool:
        """Whether the run needed no recovery action at all."""
        return not self.failures and \
            all(getattr(self, name) == 0 for name in _COUNTERS)

    def to_jsonable(self) -> Dict[str, Any]:
        block = {name: getattr(self, name) for name in _COUNTERS}
        block["failures"] = list(self.failures)
        return block


def merge_health_block(existing: Optional[Dict[str, Any]],
                       health: RunHealth) -> Dict[str, Any]:
    """Fold one run's health into a (possibly resumed) manifest block.

    Counters accumulate across resumes; failures are deduplicated by
    spec fingerprint, the latest record winning — a poison trial that
    keeps failing across resumes stays one entry, and a trial that
    finally succeeded simply stops being re-recorded (its stale entry is
    dropped once its row exists, by the caller never re-reporting it).
    """
    merged: Dict[str, Any] = {name: 0 for name in _COUNTERS}
    merged["failures"] = []
    if existing:
        for name in _COUNTERS:
            merged[name] = int(existing.get(name, 0))
        merged["failures"] = list(existing.get("failures", []))
    for name in _COUNTERS:
        merged[name] += getattr(health, name)
    by_fingerprint = {entry.get("fingerprint"): entry
                      for entry in merged["failures"]}
    for entry in health.failures:
        by_fingerprint[entry.get("fingerprint")] = entry
    merged["failures"] = [by_fingerprint[key] for key in sorted(
        by_fingerprint, key=lambda value: str(value))]
    return merged


def empty_health_block() -> Dict[str, Any]:
    """The zeroed manifest ``run_health`` block."""
    block: Dict[str, Any] = {name: 0 for name in _COUNTERS}
    block["failures"] = []
    return block


__all__ = ["RunHealth", "TrialFailure", "empty_health_block",
           "merge_health_block"]
