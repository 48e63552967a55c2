"""Shared adversary helpers.

Adversaries come in two flavours matching the engine's two scheduling
policies:

* *window adversaries* (:class:`repro.simulation.windows.WindowAdversary`)
  choose an acceptable window — the sets ``R, S_1, ..., S_n`` — given full
  information about the current configuration.  These realize the strongly
  adaptive adversary of Section 2.
* *step adversaries* (:class:`repro.simulation.engine.StepAdversary`) choose
  individual sending / receiving / crash steps, realising the classical
  asynchronous crash and Byzantine adversaries.

This module provides small utilities used by several concrete adversaries:
deterministic sender-set construction and fault-budget tracking.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Iterable, Sequence, Set

from repro.simulation.engine import StepAdversary
from repro.simulation.windows import WindowAdversary, WindowSpec


def senders_excluding(n: int, excluded: Iterable[int]) -> FrozenSet[int]:
    """The sender set consisting of everyone except ``excluded``.

    Callers are responsible for keeping ``len(excluded) <= t`` so that the
    resulting set has the ``>= n - t`` size Definition 1 requires.
    """
    excluded_set = set(excluded)
    return frozenset(pid for pid in range(n) if pid not in excluded_set)


def random_subset(population: Sequence[int], size: int,
                  rng: random.Random) -> FrozenSet[int]:
    """A uniformly random subset of the given size."""
    if size > len(population):
        raise ValueError(
            f"cannot sample {size} elements from {len(population)}")
    return frozenset(rng.sample(list(population), size))


class FaultBudget:
    """Tracks how many distinct processors an adversary has faulted.

    Crash adversaries are bounded by a *total* of ``t`` crashed processors
    over the whole execution; this helper enforces that bound and remembers
    the victims.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._victims: Set[int] = set()

    @property
    def victims(self) -> Set[int]:
        """Processors faulted so far."""
        return set(self._victims)

    @property
    def remaining(self) -> int:
        """How many more distinct processors may be faulted."""
        return max(0, self.limit - len(self._victims))

    def can_fault(self, pid: int) -> bool:
        """Whether faulting ``pid`` stays within the budget."""
        return pid in self._victims or len(self._victims) < self.limit

    def fault(self, pid: int) -> bool:
        """Record a fault on ``pid``; returns False if over budget."""
        if not self.can_fault(pid):
            return False
        self._victims.add(pid)
        return True


__all__ = [
    "WindowAdversary",
    "WindowSpec",
    "StepAdversary",
    "senders_excluding",
    "random_subset",
    "FaultBudget",
]
