"""Byzantine adversaries for the step-level engine.

The usual Byzantine asynchronous adversary corrupts the messages sent by up
to ``t`` processors (it may also suppress them entirely, simulating
crashes).  The paper notes this adversary is *incomparable* to the strongly
adaptive one: it can lie about corrupted processors' local random bits, but
it cannot erase memory.  These adversaries are used by the Bracha baseline
experiments (E6) and by the committee-protocol contrast (E5).

The adversary here also plays the scheduler: it drives the step engine in
round-robin "communication rounds" (everyone sends, then everything sent is
delivered except what the adversary withholds), applying a corruption
strategy to messages originating from the corrupted set.
"""

from __future__ import annotations

import random
from typing import FrozenSet, List, Optional, Sequence, Set

from repro.determinism import seeded_rng
from repro.simulation.engine import Engine, StepAdversary
from repro.simulation.events import Step
from repro.simulation.message import Message


class ByzantineStrategy:
    """How corrupted processors misbehave.

    Subclasses override :meth:`corrupt`, which is consulted for every
    message sent by a corrupted processor and returns either a replacement
    payload, the special value :data:`DROP` to suppress the message, or
    ``None`` to deliver it unchanged.
    """

    DROP = object()
    """Sentinel: suppress the message entirely."""

    def corrupt(self, message: Message, engine: Engine,
                rng: random.Random):
        """Return a replacement payload, ``DROP``, or ``None`` (unchanged)."""
        return None


class SilentStrategy(ByzantineStrategy):
    """Corrupted processors appear crashed: all their messages are dropped."""

    def corrupt(self, message: Message, engine: Engine,
                rng: random.Random):
        return ByzantineStrategy.DROP


class FlipValueStrategy(ByzantineStrategy):
    """Corrupted processors flip every binary value they send.

    Works on the tuple payload convention used by the protocols in this
    library (the last element of the tuple is the value; ``None`` values and
    non-tuple payloads are left alone).
    """

    def corrupt(self, message: Message, engine: Engine,
                rng: random.Random):
        payload = message.payload
        if isinstance(payload, tuple) and payload and payload[-1] in (0, 1):
            return payload[:-1] + (1 - payload[-1],)
        return None


class EquivocateStrategy(ByzantineStrategy):
    """Corrupted processors tell different receivers different values.

    Receivers with even identity are shown value 0, receivers with odd
    identity are shown value 1 — the canonical equivocation attack that
    reliable broadcast (and hence Bracha's protocol) is designed to defeat.
    """

    def corrupt(self, message: Message, engine: Engine,
                rng: random.Random):
        payload = message.payload
        if isinstance(payload, tuple) and payload and payload[-1] in (0, 1):
            forced = message.receiver % 2
            return payload[:-1] + (forced,)
        return None


class RandomValueStrategy(ByzantineStrategy):
    """Corrupted processors replace every binary value with a coin flip."""

    def corrupt(self, message: Message, engine: Engine,
                rng: random.Random):
        payload = message.payload
        if isinstance(payload, tuple) and payload and payload[-1] in (0, 1):
            return payload[:-1] + (rng.getrandbits(1),)
        return None


class ByzantineAdversary(StepAdversary):
    """Round-robin scheduler with Byzantine corruption of ``t`` processors.

    Args:
        corrupted: the corrupted set; defaults to processors ``0..t-1``.
            Must have size at most ``t``.
        strategy: how corrupted processors misbehave.
        seed: randomness for strategies that need it.
        omit_to: optionally, a set of receivers from which the adversary
            additionally withholds all honest messages for ``omit_rounds``
            communication rounds — exercising asynchrony against honest
            processors as well.
        omit_rounds: how many initial rounds the omission lasts.
    """

    def __init__(self, corrupted: Optional[Sequence[int]] = None,
                 strategy: Optional[ByzantineStrategy] = None,
                 seed: Optional[int] = None,
                 omit_to: Optional[Sequence[int]] = None,
                 omit_rounds: int = 0) -> None:
        self.corrupted: Optional[FrozenSet[int]] = (
            frozenset(corrupted) if corrupted is not None else None)
        self.strategy = strategy or SilentStrategy()
        self.rng = seeded_rng(seed)
        self.omit_to = frozenset(omit_to or ())
        self.omit_rounds = omit_rounds
        self._queue: List[Step] = []
        self._round = 0

    def bind(self, engine: Engine) -> None:
        if self.corrupted is None:
            self.corrupted = frozenset(range(engine.t))
        if len(self.corrupted) > engine.t:
            raise ValueError(
                f"corrupted set of size {len(self.corrupted)} exceeds "
                f"t = {engine.t}")

    # ------------------------------------------------------------------
    def _plan_round(self, engine: Engine) -> List[Step]:
        """One communication round: everyone sends, then deliveries."""
        steps: List[Step] = [Step.send(pid) for pid in
                             engine.live_processors()]
        return steps

    def _plan_deliveries(self, engine: Engine) -> List[Step]:
        steps: List[Step] = []
        assert self.corrupted is not None
        for message in engine.pending_messages():
            if self._round < self.omit_rounds and \
                    message.receiver in self.omit_to and \
                    message.sender not in self.corrupted:
                continue
            if message.sender in self.corrupted:
                outcome = self.strategy.corrupt(message, engine, self.rng)
                if outcome is ByzantineStrategy.DROP:
                    continue
                steps.append(Step.receive(message,
                                          corrupted_payload=outcome))
            else:
                steps.append(Step.receive(message))
        return steps

    def next_step(self, engine: Engine) -> Optional[Step]:
        if not self._queue:
            # Alternate: a block of sending steps, then a block of
            # deliveries of whatever is pending.
            sends = self._plan_round(engine)
            deliveries = self._plan_deliveries(engine)
            self._queue = sends + deliveries
            self._round += 1
            if not self._queue:
                return None
        return self._queue.pop(0)


__all__ = [
    "ByzantineStrategy",
    "SilentStrategy",
    "FlipValueStrategy",
    "EquivocateStrategy",
    "RandomValueStrategy",
    "ByzantineAdversary",
]
