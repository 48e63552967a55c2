"""Crash-failure adversaries.

The classical asynchronous crash adversary (Sections 1 and 5) can stop up to
``t`` processors forever and otherwise only controls scheduling; every
message sent to a live processor must eventually be delivered.  These
adversaries schedule acceptable windows in the crash model (no resets) and are
used by the Ben-Or baseline experiments (E4, E6).
"""

from __future__ import annotations

from typing import Optional

from repro.adversaries.base import FaultBudget, senders_excluding
from repro.adversaries.split_vote import SplitVoteAdversary
from repro.simulation.engine import Engine
from repro.simulation.windows import WindowAdversary, WindowSpec


class StaticCrashAdversary(WindowAdversary):
    """Crashes a fixed set of processors at chosen windows.

    Args:
        crash_schedule: mapping from window index (0-based, i.e. the window
            about to be executed) to the processors crashed at its start.
            The cumulative number of victims must stay within ``t``.
        deliver_from_live_only: when True, receivers only hear from live
            processors (the usual crash-model schedule); when False the
            sender sets still formally include crashed processors, which is
            harmless since they send nothing.
    """

    def __init__(self, crash_schedule: Optional[dict] = None,
                 deliver_from_live_only: bool = True) -> None:
        self.crash_schedule = dict(crash_schedule or {})
        self.deliver_from_live_only = deliver_from_live_only
        self._budget: Optional[FaultBudget] = None

    def bind(self, engine: Engine) -> None:
        self._budget = FaultBudget(engine.t)

    def next_window(self, engine: Engine) -> WindowSpec:
        n, t = engine.n, engine.t
        crashes = set(self.crash_schedule.get(engine.window_index, ()))
        assert self._budget is not None
        allowed = frozenset(pid for pid in crashes
                            if self._budget.fault(pid))
        already_crashed = set(engine.crashed_processors())
        excluded = (already_crashed | allowed) if self.deliver_from_live_only \
            else set()
        # Definition 1 caps exclusions at t; crash victims never exceed t by
        # construction of the fault budget, so the truncation is a no-op
        # safety net — sorted so that, if it ever fires, the choice of
        # which victims to keep excluding is deterministic.
        excluded = set(sorted(excluded)[:t])
        senders = senders_excluding(n, excluded)
        return WindowSpec.uniform(n, senders, crashes=allowed)


class CrashAtDecisionAdversary(WindowAdversary):
    """Adaptively crashes processors the moment they decide.

    This is the textbook adaptive crash strategy against early-deciding
    protocols: the first ``t`` processors to decide are immediately crashed,
    so their decision must still propagate through the surviving ones.  Used
    to stress the agreement property in experiment E1/E6.
    """

    def __init__(self) -> None:
        self._budget: Optional[FaultBudget] = None

    def bind(self, engine: Engine) -> None:
        self._budget = FaultBudget(engine.t)

    def next_window(self, engine: Engine) -> WindowSpec:
        n, t = engine.n, engine.t
        assert self._budget is not None
        victims = set()
        for proc in engine.processors:
            if proc.decided and not proc.crashed and self._budget.can_fault(
                    proc.pid):
                self._budget.fault(proc.pid)
                victims.add(proc.pid)
        already_crashed = set(engine.crashed_processors())
        excluded = set(sorted(already_crashed | victims)[:t])
        senders = senders_excluding(n, excluded)
        return WindowSpec.uniform(n, senders, crashes=frozenset(victims))


class CrashSplitVoteAdversary(SplitVoteAdversary):
    """The Theorem 17 adversary: vote splitting in the pure crash model.

    Identical to :class:`SplitVoteAdversary` — message delay alone (never
    actually crashing anyone) suffices to keep forgetful, fully
    communicative protocols such as Ben-Or undecided for exponentially many
    iterations, because withheld messages can always be delivered later
    without affecting the processors' forward behaviour.  The split-vote
    schedule never resets anyone, so it already lies in the crash model;
    the class adds no behaviour and exists so experiment code and the
    adversary registry can name the crash-model adversary explicitly.
    """


__all__ = [
    "StaticCrashAdversary",
    "CrashAtDecisionAdversary",
    "CrashSplitVoteAdversary",
]
