"""The paper's reset-tolerant randomized agreement algorithm (Section 3).

This is the Ben-Or/Bracha-style threshold-voting protocol that Theorem 4
proves correct (measure-one correctness and termination) against the strongly
adaptive adversary for ``t < n/6``, with thresholds satisfying
``n - 2t >= T1 >= T2 >= T3 + t`` and ``2*T3 > n``.

Per round ``r`` a processor:

1. sends ``(r, x)`` to all processors, where ``x`` is its current estimate;
2. waits until ``T1`` messages ``(r_q, x_q)`` with ``r_q = r`` have arrived;
3. if at least ``T2`` of them carry the same value ``v`` it writes ``v`` to
   its (write-once) output bit; if at least ``T3`` carry the same ``v`` it
   sets ``x = v``; otherwise it sets ``x`` to a freshly sampled random bit;
4. increments ``r`` and returns to step 1.

Reset handling: a processor that detects it has been reset (its memory is
blank but its reset counter is non-zero) refrains from sending and waits
until it has received ``T1`` messages sharing a common round number ``r``;
it then adopts that round and resumes at step 3.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.core.thresholds import ThresholdConfig, resolve_thresholds
from repro.protocols.base import Protocol
from repro.simulation.message import Message

VOTE = "VOTE"
"""Message tag used by the reset-tolerant protocol."""


class ResetTolerantAgreement(Protocol):
    """The Section 3 algorithm, one instance per processor.

    The protocol is *forgetful* in spirit (each round's message depends only
    on the previous round's received votes) and *fully communicative* (it
    broadcasts to all processors whenever it has heard from enough of them),
    which is why the crash-failure lower bound of Section 5 also applies to
    it.

    Args:
        pid: processor identity.
        n: number of processors.
        t: resetting-fault bound per acceptable window.
        input_bit: the processor's input.
        rng: local randomness source.
        thresholds: optional explicit :class:`ThresholdConfig`; when omitted
            the Theorem 4 defaults (``T1 = T2 = n - 2t``, ``T3 = n - 3t``)
            are used.
        validate_thresholds: set False to allow deliberately invalid
            thresholds (used by the ablation experiment E7); ``T1 >= 1``
            is still required (see
            :func:`~repro.core.thresholds.resolve_thresholds`).
    """

    forgetful: ClassVar[bool] = True
    fully_communicative: ClassVar[bool] = True

    def __init__(self, pid: int, n: int, t: int, input_bit: int,
                 rng: Optional[random.Random] = None,
                 thresholds: Optional[ThresholdConfig] = None,
                 validate_thresholds: bool = True) -> None:
        super().__init__(pid=pid, n=n, t=t, input_bit=input_bit, rng=rng)
        self.thresholds = resolve_thresholds(n, t, thresholds,
                                             validate_thresholds)
        # T1 is read for every delivered vote; cache it off the config.
        self._t1 = self.thresholds.t1
        # Volatile state (erased by a reset).
        self.round: Optional[int] = 1
        self.estimate: Optional[int] = input_bit
        self._votes: Dict[int, Dict[int, int]] = defaultdict(dict)
        self._resyncing = False

    # ------------------------------------------------------------------
    # Protocol hooks.
    # ------------------------------------------------------------------
    def _compose_payloads(self) -> List[Any]:
        if self._resyncing or self.round is None or self.estimate is None:
            # A freshly reset processor refrains from sending until it has
            # resynchronised to the common round number.
            return []
        return [(VOTE, self.round, self.estimate)]

    def _handle_message(self, message: Message) -> None:
        payload = message.payload
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        tag, vote_round, vote_value = payload
        if not (tag == VOTE and isinstance(vote_round, int)
                and vote_value in (0, 1)):
            return
        if self._resyncing:
            self._handle_resync_vote(message.sender, vote_round, vote_value)
            return
        current_round = self.round
        assert current_round is not None
        if vote_round < current_round:
            return
        votes = self._votes[vote_round]
        votes[message.sender] = vote_value
        if vote_round == current_round and len(votes) >= self._t1:
            self._finish_round(vote_round)

    def _on_reset(self) -> None:
        self.round = None
        self.estimate = None
        self._votes = defaultdict(dict)
        self._resyncing = True

    # ------------------------------------------------------------------
    # Round logic.
    # ------------------------------------------------------------------
    def _finish_round(self, finished_round: int) -> None:
        """Step 3: evaluate the collected votes for ``finished_round``."""
        votes = self._votes[finished_round]
        # Votes are validated to be 0/1, so a sum tallies the ones; this
        # replaces a Counter allocation on the per-round hot path.
        ones = sum(votes.values())
        zeros = len(votes) - ones
        if zeros >= ones:
            majority_value, majority_count = 0, zeros
        else:
            majority_value, majority_count = 1, ones
        if majority_count >= self.thresholds.t2 and not self.decided:
            self.decide(majority_value)
        if majority_count >= self.thresholds.t3:
            self.estimate = majority_value
        else:
            self.estimate = self.coin_flip()
        del self._votes[finished_round]
        self.round = finished_round + 1
        # Votes buffered for the new round may already satisfy the
        # threshold (possible under very asynchronous schedules).
        if len(self._votes.get(self.round, {})) >= self._t1:
            self._finish_round(self.round)

    def _handle_resync_vote(self, sender: int, vote_round: int,
                            vote_value: int) -> None:
        """Reset recovery: collect votes until some round has T1 of them."""
        self._votes[vote_round][sender] = vote_value
        if len(self._votes[vote_round]) >= self._t1:
            self._resyncing = False
            self.round = vote_round
            self.estimate = None  # will be set by step 3 below
            self._finish_round(vote_round)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def current_estimate(self) -> Optional[int]:
        """The bit this processor will vote for in its next message."""
        return self.estimate

    def current_round(self) -> Optional[int]:
        """The protocol's internal round number (``None`` while resyncing)."""
        return self.round

    def waiting_threshold(self) -> Optional[int]:
        """The protocol acts on the first ``T1`` same-round votes."""
        return self.thresholds.t1

    def will_send(self) -> bool:
        """Reset processors stay silent until they have resynchronised."""
        return not self._resyncing and self.round is not None

    def volatile_state(self) -> Tuple:
        vote_view = tuple(sorted(
            (vote_round, sender, value)
            for vote_round, votes in self._votes.items()
            for sender, value in votes.items()))
        return (self.round, self.estimate, self._resyncing, vote_view)

    @classmethod
    def estimate_from_fingerprint(cls, fingerprint: Tuple) -> Optional[int]:
        # fingerprint = (input, output, reset_count, volatile_state());
        # the estimate is the second volatile field (see volatile_state).
        return fingerprint[3][1]


__all__ = ["ResetTolerantAgreement", "VOTE"]
