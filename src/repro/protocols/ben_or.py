"""Ben-Or's randomized asynchronous agreement protocol (PODC 1983).

This is the classic two-phase, coin-flipping protocol the paper builds on:
it tolerates ``t < n/2`` crash failures in the asynchronous full-information
model, terminates with probability one (Aguilera & Toueg's correctness
proof), and — when the inputs are split and ``t = Omega(n)`` — runs for an
expected exponential number of rounds, which is exactly the behaviour the
lower bounds of Sections 4 and 5 show to be unavoidable for its class
(forgetful, fully communicative algorithms).

Per round ``r``:

* *Report phase.*  Broadcast ``(REPORT, r, x)``; wait for ``n - t`` reports
  of round ``r``.  If more than ``n/2`` of all received reports carry the
  same value ``v``, propose ``v``; otherwise propose ``⊥``.
* *Proposal phase.*  Broadcast ``(PROPOSE, r, proposal)``; wait for
  ``n - t`` proposals of round ``r``.  If at least ``t + 1`` carry the same
  value ``v ≠ ⊥``, decide ``v`` (and keep ``x = v``); else if at least one
  carries ``v ≠ ⊥``, set ``x = v``; otherwise set ``x`` to a fresh coin
  flip.  Then move to round ``r + 1``.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.protocols.base import Protocol
from repro.simulation.message import Message

REPORT = "REPORT"
"""Tag of first-phase (report) messages."""

PROPOSE = "PROPOSE"
"""Tag of second-phase (proposal) messages; the value ``None`` encodes ⊥."""


class BenOrAgreement(Protocol):
    """One processor's instance of Ben-Or's protocol.

    Args:
        pid: processor identity.
        n: number of processors.
        t: crash-fault bound; the protocol requires ``t < n/2``.
        input_bit: the processor's input.
        rng: local randomness source.
    """

    forgetful: ClassVar[bool] = True
    fully_communicative: ClassVar[bool] = True

    def __init__(self, pid: int, n: int, t: int, input_bit: int,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(pid=pid, n=n, t=t, input_bit=input_bit, rng=rng)
        if not t < n / 2:
            raise ValueError(
                f"Ben-Or requires t < n/2, got t={t}, n={n}")
        self.round = 1
        self.phase = REPORT
        self.estimate = input_bit
        self.proposal: Optional[int] = None
        # Received messages, keyed by (round, phase) then sender.
        self._received: Dict[Tuple[int, str], Dict[int, Optional[int]]] = \
            defaultdict(dict)
        self._processed: set = set()

    # ------------------------------------------------------------------
    # Protocol hooks.
    # ------------------------------------------------------------------
    def _compose_payloads(self) -> List[Any]:
        if self.phase == REPORT:
            return [(REPORT, self.round, self.estimate)]
        return [(PROPOSE, self.round, self.proposal)]

    def _handle_message(self, message: Message) -> None:
        payload = message.payload
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        tag, msg_round, value = payload
        if tag not in (REPORT, PROPOSE) or not isinstance(msg_round, int):
            return
        if tag == REPORT and value not in (0, 1):
            return
        if tag == PROPOSE and value not in (0, 1, None):
            return
        key = (msg_round, tag)
        if key in self._processed or msg_round < self.round:
            return
        self._received[key][message.sender] = value
        self._maybe_advance()

    def _maybe_advance(self) -> None:
        """Advance through phases as long as quorums are available."""
        advanced = True
        while advanced:
            advanced = False
            key = (self.round, self.phase)
            received = self._received.get(key, {})
            if len(received) >= self.n - self.t and key not in self._processed:
                self._processed.add(key)
                if self.phase == REPORT:
                    self._finish_report_phase(received)
                else:
                    self._finish_proposal_phase(received)
                advanced = True

    def _finish_report_phase(self, received: Dict[int, Optional[int]]
                             ) -> None:
        counts = Counter(value for value in received.values()
                         if value in (0, 1))
        self.proposal = None
        for value in (0, 1):
            if counts.get(value, 0) > self.n / 2:
                self.proposal = value
        self.phase = PROPOSE

    def _finish_proposal_phase(self, received: Dict[int, Optional[int]]
                               ) -> None:
        counts = Counter(value for value in received.values()
                         if value in (0, 1))
        strongest: Optional[int] = None
        strongest_count = 0
        for value in (0, 1):
            if counts.get(value, 0) > strongest_count:
                strongest = value
                strongest_count = counts[value]
        if strongest is not None and strongest_count >= self.t + 1:
            if not self.decided:
                self.decide(strongest)
            self.estimate = strongest
        elif strongest is not None:
            self.estimate = strongest
        else:
            self.estimate = self.coin_flip()
        self.round += 1
        self.phase = REPORT

    def _on_reset(self) -> None:
        # Ben-Or was not designed for resetting failures; a reset simply
        # restarts the processor from its input (used only by tests that
        # probe behaviour outside the protocol's design envelope).
        self.round = 1
        self.phase = REPORT
        self.estimate = self.input_bit
        self.proposal = None
        self._received = defaultdict(dict)
        self._processed = set()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def current_estimate(self) -> Optional[int]:
        """The value the next outgoing message will carry (``None`` for ⊥)."""
        if self.phase == REPORT:
            return self.estimate
        return self.proposal

    def waiting_threshold(self) -> int:
        """The protocol acts on the first ``n - t`` same-phase messages."""
        return self.n - self.t

    def majority_threshold(self) -> int:
        """Vote count the split-vote adversary must keep receivers below.

        In the report phase a processor acts deterministically once some
        value exceeds ``n/2`` among its received reports; in the proposal
        phase *any* non-⊥ proposal seen steers the estimate, so the
        adversary must hide proposals entirely.
        """
        if self.phase == REPORT:
            return self.n // 2 + 1
        return 1

    def volatile_state(self) -> Tuple:
        received_view = tuple(sorted(
            (msg_round, tag, sender, value)
            for (msg_round, tag), votes in self._received.items()
            for sender, value in votes.items()))
        return (self.round, self.phase, self.estimate, self.proposal,
                received_view)

    @classmethod
    def estimate_from_fingerprint(cls, fingerprint: Tuple) -> Optional[int]:
        # fingerprint = (input, output, reset_count, volatile_state());
        # the estimate is the third volatile field (see volatile_state).
        return fingerprint[3][2]


__all__ = ["BenOrAgreement", "REPORT", "PROPOSE"]
