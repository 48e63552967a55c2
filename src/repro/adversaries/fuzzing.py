"""Schedule-fuzzing adversaries: random-but-admissible executions.

The five hand-written adversaries of the experiment battery each realise
one *known* attack (vote splitting, adaptive resets, crash-at-decision,
...).  The fuzzers instead sample the space of admissible schedules
broadly: every window satisfies Definition 1 and every fault stays within
the ``t`` budget, but delivery patterns, reset/crash placements and
Byzantine equivocation are chosen at random from a seeded stream.  Paired
with the independent invariant checker
(:class:`repro.verification.invariants.InvariantChecker`) they form the
``repro fuzz`` campaign: any invariant violation under an admissible
schedule is a bug in the protocol (or the engine), and the violating
schedule is minimized into a reproducer by :mod:`repro.verification.shrink`.

Both fuzzers are seed-deterministic: the same constructor seed yields the
same schedule against the same engine state, which is what makes fuzz
campaigns resumable and counterexamples replayable.

:class:`WindowSampler` is the one window distribution: the schedule
fuzzer draws every window through it, and the guided search
(:mod:`repro.search`) samples fresh windows and schedules from it.
:func:`fault_model_probabilities` is the one rule both campaign kinds
use to pick resets or crashes for the protocol under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.determinism import seeded_rng
from repro.adversaries.base import FaultBudget, random_subset
from repro.adversaries.byzantine import ByzantineStrategy, EquivocateStrategy
from repro.simulation.engine import Engine, StepAdversary
from repro.simulation.events import Step
from repro.simulation.windows import WindowAdversary, WindowSpec


def fault_model_probabilities(fault_model: str) -> Dict[str, float]:
    """Reset and crash probabilities for a protocol's fault model.

    Resets are the strongly adaptive adversary's weapon, crashes the
    classical crash adversary's: a crash-model protocol (its registry
    ``fault_model`` mentions crashes) is fuzzed and searched with crashes
    only, every other protocol with resets only.
    """
    crash_model = "crash" in fault_model.lower()
    return {"reset_probability": 0.0 if crash_model else 0.35,
            "crash_probability": 0.25 if crash_model else 0.0}


@dataclass(frozen=True)
class WindowSampler:
    """The (n, t) system plus a distribution over admissible windows.

    Each window draws, for every processor, an independent sender set of
    random size in ``[n - t, n]``; with probability ``reset_probability``
    a random set of at most ``t`` processors is reset; with probability
    ``crash_probability`` (and crash budget left) a random set of at most
    ``crashes_left`` processors is crashed; with probability
    ``deliver_last_probability`` a random sender subset is deprioritised
    within the window.  Campaigns pick the reset/crash probabilities with
    :func:`fault_model_probabilities`.
    """

    n: int
    t: int
    reset_probability: float = 0.35
    crash_probability: float = 0.0
    deliver_last_probability: float = 0.3

    def window(self, rng: random.Random,
               crashes_left: int = 0) -> WindowSpec:
        """One freshly sampled admissible window."""
        n, t = self.n, self.t
        senders_for = tuple(
            random_subset(range(n), rng.randint(n - t, n), rng)
            for _ in range(n))
        resets: FrozenSet[int] = frozenset()
        if t > 0 and rng.random() < self.reset_probability:
            resets = random_subset(range(n), rng.randint(1, t), rng)
        crashes: FrozenSet[int] = frozenset()
        if crashes_left > 0 and rng.random() < self.crash_probability:
            crashes = random_subset(range(n),
                                    rng.randint(1, crashes_left), rng)
        deliver_last: FrozenSet[int] = frozenset()
        if rng.random() < self.deliver_last_probability:
            deliver_last = random_subset(range(n), rng.randint(1, n), rng)
        return WindowSpec(senders_for=senders_for, resets=resets,
                          crashes=crashes, deliver_last=deliver_last)

    def schedule(self, length: int, rng: random.Random) -> List[WindowSpec]:
        """A freshly sampled admissible schedule of ``length`` windows."""
        schedule: List[WindowSpec] = []
        victims: Set[int] = set()
        for _ in range(length):
            spec = self.window(rng, crashes_left=self.t - len(victims))
            victims |= spec.crashes
            schedule.append(spec)
        return schedule


class ScheduleFuzzer(WindowAdversary):
    """Samples random admissible acceptable windows (the window engine).

    Every window is drawn through a :class:`WindowSampler` bound to the
    engine's ``(n, t)``, with crash placements drawn and recorded against
    a cumulative ``t``-victim :class:`~repro.adversaries.base.FaultBudget`
    (crashes only happen when ``crash_probability`` is positive, for
    crash-model protocols).

    Args:
        seed: the schedule seed; equal seeds produce equal schedules.
        reset_probability: chance a window resets anyone (strongly
            adaptive model; keep 0 for crash-model protocols).
        crash_probability: chance a window crashes someone (crash model;
            keep 0 for the strongly adaptive model, which uses resets).
        deliver_last_probability: chance a window deprioritises a random
            sender subset.
        max_crashes: cumulative crash budget (defaults to ``t`` at bind).
    """

    def __init__(self, seed: Optional[int] = None,
                 reset_probability: float = 0.3,
                 crash_probability: float = 0.0,
                 deliver_last_probability: float = 0.25,
                 max_crashes: Optional[int] = None) -> None:
        for name, probability in (
                ("reset_probability", reset_probability),
                ("crash_probability", crash_probability),
                ("deliver_last_probability", deliver_last_probability)):
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], "
                                 f"got {probability}")
        self.rng = seeded_rng(seed)
        self.reset_probability = reset_probability
        self.crash_probability = crash_probability
        self.deliver_last_probability = deliver_last_probability
        self.max_crashes = max_crashes
        self._crash_budget: Optional[FaultBudget] = None
        self._sampler: Optional[WindowSampler] = None

    def bind(self, engine: Engine) -> None:
        limit = engine.t if self.max_crashes is None else self.max_crashes
        self._crash_budget = FaultBudget(min(limit, engine.t))
        self._sampler = WindowSampler(
            n=engine.n, t=engine.t,
            reset_probability=self.reset_probability,
            crash_probability=self.crash_probability,
            deliver_last_probability=self.deliver_last_probability)

    def next_window(self, engine: Engine) -> WindowSpec:
        assert self._sampler is not None and self._crash_budget is not None
        budget = self._crash_budget
        spec = self._sampler.window(self.rng, crashes_left=budget.remaining)
        if not spec.crashes:
            return spec
        return replace(spec, crashes=frozenset(
            pid for pid in sorted(spec.crashes) if budget.fault(pid)))


class StepFuzzer(StepAdversary):
    """Samples random admissible step schedules (the step engine).

    Each step is drawn at random: deliver a random pending message (with
    probability ``deliver_probability`` whenever one is pending, so
    executions make progress), otherwise schedule a random live processor's
    sending step, an in-budget reset, or an in-budget crash.  Messages sent
    by processors in ``corrupted`` are, with probability
    ``corrupt_probability``, rewritten through a Byzantine corruption
    strategy before delivery — the default
    :class:`~repro.adversaries.byzantine.EquivocateStrategy` shows
    different receivers different values, the classic equivocation pattern.

    Args:
        seed: the schedule seed; equal seeds produce equal schedules.
        corrupted: identities whose messages may be corrupted (at most
            ``t``; checked at bind).
        strategy: Byzantine corruption strategy (a registry name string is
            resolved by :func:`repro.adversaries.registry.build_adversary`).
        deliver_probability: chance of preferring a delivery step when
            messages are pending.
        corrupt_probability: chance a corrupted sender's message is
            rewritten on delivery.
        reset_probability: chance of scheduling a resetting step.
        crash_probability: chance of scheduling a crash step.
        max_resets: cumulative reset cap (defaults to ``2 * t`` at bind so
            fuzz runs terminate; the engine's own budget still applies).
    """

    def __init__(self, seed: Optional[int] = None,
                 corrupted: Sequence[int] = (),
                 strategy: Optional[ByzantineStrategy] = None,
                 deliver_probability: float = 0.7,
                 corrupt_probability: float = 0.5,
                 reset_probability: float = 0.0,
                 crash_probability: float = 0.0,
                 max_resets: Optional[int] = None) -> None:
        self.rng = seeded_rng(seed)
        self.corrupted = frozenset(corrupted)
        self.strategy = strategy or EquivocateStrategy()
        self.deliver_probability = deliver_probability
        self.corrupt_probability = corrupt_probability
        self.reset_probability = reset_probability
        self.crash_probability = crash_probability
        self.max_resets = max_resets
        self._resets_left = 0

    def bind(self, engine: Engine) -> None:
        if len(self.corrupted) > engine.t:
            raise ValueError(
                f"corrupted set of size {len(self.corrupted)} exceeds "
                f"t = {engine.t}")
        self._resets_left = (2 * engine.t if self.max_resets is None
                             else self.max_resets)
        if engine.reset_budget is not None:
            self._resets_left = min(self._resets_left, engine.reset_budget)

    def next_step(self, engine: Engine) -> Optional[Step]:
        rng = self.rng
        live = engine.live_processors()
        if not live:
            return None
        # The pending list is copied only when a delivery is drawn, except
        # after a crash, when the messages to crashed receivers are
        # filtered out first.
        pending: Optional[List] = None
        if engine.total_crashes:
            # Only Engine.crash marks a processor crashed, and it counts.
            pending = [message for message in engine.pending_messages()
                       if not engine.processors[message.receiver].crashed]
            deliverable = bool(pending)
        else:
            deliverable = engine.network.pending_count() > 0
        if deliverable and rng.random() < self.deliver_probability:
            if pending is None:
                pending = engine.pending_messages()
            message = rng.choice(pending)
            if message.sender in self.corrupted and \
                    rng.random() < self.corrupt_probability:
                outcome = self.strategy.corrupt(message, engine, rng)
                if outcome is not ByzantineStrategy.DROP:
                    return Step.receive(message, corrupted_payload=outcome)
                # DROP: leave the message buffered (it is simply never
                # scheduled this step) and fall through to another action.
            else:
                return Step.receive(message)
        if self._resets_left > 0 and rng.random() < self.reset_probability:
            self._resets_left -= 1
            return Step.reset(rng.choice(live))
        crashes_left = engine.crash_budget - engine.total_crashes
        if crashes_left > 0 and rng.random() < self.crash_probability:
            return Step.crash(rng.choice(live))
        return Step.send(rng.choice(live))


__all__ = ["WindowSampler", "fault_model_probabilities", "ScheduleFuzzer",
           "StepFuzzer"]
