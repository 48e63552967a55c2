"""Bracha's asynchronous Byzantine agreement protocol (PODC 1984).

Bracha's protocol achieves the optimal resilience ``t < n/3`` against
Byzantine failures, terminating with probability one.  It is the second of
the two classic exponential-time algorithms the paper generalises (the
other being Ben-Or's), and the building block of the committee-election
algorithms (Kapron et al.) that the paper contrasts against.

Every value is disseminated through Bracha's *reliable broadcast*
(:mod:`repro.broadcast`), which prevents a Byzantine sender from making two
honest processors accept different values from the same broadcast.  On top
of that, each round has three phases:

1. broadcast the current value; await ``n - t`` accepted phase-1 values and
   adopt the majority;
2. broadcast the result; await ``n - t`` accepted phase-2 values; if more
   than ``n/2`` of them agree on ``v``, adopt the *decided candidate*
   marker ``(D, v)``;
3. broadcast again; await ``n - t`` accepted phase-3 values; with at least
   ``2t + 1`` decided-candidate markers for ``v`` decide ``v``; with at
   least ``t + 1`` adopt ``v``; otherwise adopt a fresh coin flip.

On top of reliable broadcast the protocol applies Bracha's *validation*
filter: a phase-``s`` value is only counted if it could have been produced
by a correct processor applying the phase-``(s-1)`` rule to some admissible
set of ``n - t`` phase-``(s-1)`` values.  We implement the filter
conservatively with respect to the receiver's current knowledge: a claim is
discarded only when the receiver's own accepted phase-``(s-1)`` values
already rule it out even if every not-yet-accepted broadcast were to support
it.  Honest claims always pass (reliable broadcast makes the receiver's
knowledge consistent with the sender's), so liveness is preserved, while
fabricated decided-candidate claims are filtered out once enough genuine
phase values have been accepted.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.broadcast.bracha_broadcast import ReliableBroadcastLayer
from repro.protocols.base import Protocol
from repro.simulation.message import Message

DECIDED_MARKER = "D"
"""First element of a decided-candidate phase value ``(D, v)``."""


class BrachaAgreement(Protocol):
    """One processor's instance of Bracha's agreement protocol.

    Args:
        pid: processor identity.
        n: number of processors.
        t: Byzantine-fault bound; the protocol requires ``t < n/3``.
        input_bit: the processor's input.
        rng: local randomness source.
    """

    forgetful: ClassVar[bool] = False
    fully_communicative: ClassVar[bool] = True

    def __init__(self, pid: int, n: int, t: int, input_bit: int,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(pid=pid, n=n, t=t, input_bit=input_bit, rng=rng)
        if not t < n / 3:
            raise ValueError(f"Bracha requires t < n/3, got t={t}, n={n}")
        self.round = 1
        self.phase = 1
        self.value: object = input_bit
        self.rbc = ReliableBroadcastLayer(pid=pid, n=n, t=t)
        self._accepted: Dict[Tuple[int, int], Dict[int, object]] = \
            defaultdict(dict)
        self._processed: set = set()
        self._initiated: set = set()

    # ------------------------------------------------------------------
    # Protocol hooks.
    # ------------------------------------------------------------------
    def _compose_payloads(self) -> List[Any]:
        tag = (self.round, self.phase)
        if tag not in self._initiated and not self.decided:
            self._initiated.add(tag)
            self.rbc.broadcast(tag, self.value)
        return self.rbc.take_outgoing()

    def _handle_message(self, message: Message) -> None:
        recorded = False
        for acceptance in self.rbc.handle(message.sender, message.payload):
            tag = acceptance.tag
            if not (isinstance(tag, tuple) and len(tag) == 2):
                continue
            self._accepted[tag][acceptance.originator] = acceptance.value
            recorded = True
        if recorded:
            self._maybe_advance()

    def _maybe_advance(self) -> None:
        """Finish every phase whose quorum of valid values is in.

        Only a new entry in ``_accepted`` can change the valid sets, and
        only finishing a phase moves ``(round, phase)`` or decides, so
        :meth:`_handle_message` runs this scan only after recording an
        acceptance: after any other message, or a sending step or a reset,
        the scan would find nothing to finish.
        """
        advanced = True
        while advanced and not self.decided:
            advanced = False
            tag = (self.round, self.phase)
            accepted = self._valid_accepted(self.round, self.phase)
            if len(accepted) >= self.n - self.t and tag not in self._processed:
                self._processed.add(tag)
                self._finish_phase(accepted)
                advanced = True

    # ------------------------------------------------------------------
    # Bracha's validation filter.
    # ------------------------------------------------------------------
    def _valid_accepted(self, round_number: int, phase: int
                        ) -> Dict[int, object]:
        """Accepted values for (round, phase) that pass validation.

        Phase-1 values are always admissible (they may legitimately come
        from a coin flip).  A phase-2 or phase-3 claim is discarded only if
        the receiver's accepted previous-phase values already make the claim
        impossible, even when every not-yet-accepted broadcast is counted in
        the claim's favour.
        """
        accepted = self._accepted.get((round_number, phase), {})
        if phase == 1:
            return dict(accepted)
        previous = self._accepted.get((round_number, phase - 1), {})
        unknown = self.n - len(previous)
        valid: Dict[int, object] = {}
        for originator, value in accepted.items():
            if self._claim_possible(value, previous, unknown, phase):
                valid[originator] = value
        return valid

    def _claim_possible(self, value: object, previous: Dict[int, object],
                        unknown: int, phase: int) -> bool:
        """Whether ``value`` could arise from a correct previous-phase view."""
        if isinstance(value, tuple) and len(value) == 2 and \
                value[0] == DECIDED_MARKER and value[1] in (0, 1):
            # A decided-candidate claim asserts that more than n/2 of the
            # claimer's accepted phase-2 values equalled the bit.
            bit = value[1]
            support = self._support_count(previous, bit) + unknown
            return support > self.n / 2
        if value in (0, 1):
            # A plain value asserts it was the majority of n - t accepted
            # previous-phase values.
            support = self._support_count(previous, value) + unknown
            return 2 * support >= self.n - self.t
        return False

    @staticmethod
    def _support_count(values: Dict[int, object], bit: int) -> int:
        """How many previous-phase values support ``bit``."""
        count = 0
        for value in values.values():
            if value == bit:
                count += 1
            elif isinstance(value, tuple) and len(value) == 2 and \
                    value[0] == DECIDED_MARKER and value[1] == bit:
                count += 1
        return count

    # ------------------------------------------------------------------
    # Phase logic.
    # ------------------------------------------------------------------
    def _finish_phase(self, accepted: Dict[int, object]) -> None:
        values = list(accepted.values())
        if self.phase == 1:
            self.value = self._majority_bit(values)
            self.phase = 2
        elif self.phase == 2:
            counts = Counter(value for value in values if value in (0, 1))
            self.value = self._majority_bit(values)
            for bit in (0, 1):
                if counts.get(bit, 0) > self.n / 2:
                    self.value = (DECIDED_MARKER, bit)
            self.phase = 3
        else:
            decided_counts: Counter = Counter()
            for value in values:
                if isinstance(value, tuple) and len(value) == 2 and \
                        value[0] == DECIDED_MARKER and value[1] in (0, 1):
                    decided_counts[value[1]] += 1
            best_bit, best_count = None, 0
            for bit in (0, 1):
                if decided_counts.get(bit, 0) > best_count:
                    best_bit, best_count = bit, decided_counts[bit]
            if best_bit is not None and best_count >= 2 * self.t + 1:
                self.decide(best_bit)
                self.value = best_bit
            elif best_bit is not None and best_count >= self.t + 1:
                self.value = best_bit
            else:
                self.value = self.coin_flip()
            self.round += 1
            self.phase = 1

    def _majority_bit(self, values: List[object]) -> int:
        """The majority bit among plain-bit values (ties toward 0)."""
        counts = Counter()
        for value in values:
            if value in (0, 1):
                counts[value] += 1
            elif isinstance(value, tuple) and len(value) == 2 and \
                    value[0] == DECIDED_MARKER and value[1] in (0, 1):
                counts[value[1]] += 1
        if counts.get(1, 0) > counts.get(0, 0):
            return 1
        return 0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def current_estimate(self) -> Optional[int]:
        if self.value in (0, 1):
            return self.value
        if isinstance(self.value, tuple) and len(self.value) == 2:
            return self.value[1]
        return None

    def current_round(self) -> int:
        """The protocol's internal round number."""
        return self.round

    def volatile_state(self) -> Tuple:
        accepted_view = tuple(sorted(
            ((tag, originator, value)
             for tag, entries in self._accepted.items()
             for originator, value in entries.items()),
            key=repr))
        return (self.round, self.phase, self.value, accepted_view,
                self.rbc.state_view())

    def _on_reset(self) -> None:
        # Bracha's protocol predates resetting failures; a reset restarts
        # the processor from its input bit.  Only used by boundary tests.
        self.round = 1
        self.phase = 1
        self.value = self.input_bit
        self.rbc = ReliableBroadcastLayer(pid=self.pid, n=self.n, t=self.t)
        self._accepted = defaultdict(dict)
        self._processed = set()
        self._initiated = set()


__all__ = ["BrachaAgreement", "DECIDED_MARKER"]
