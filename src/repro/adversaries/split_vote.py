"""The vote-splitting adversary: the paper's exponential-slowdown schedule.

Section 3 (end) argues that against initial inputs split evenly between 0
and 1, a full-information adversary can keep the threshold-voting algorithm
running for an exponential number of acceptable windows: since the adoption
threshold satisfies ``T3 > n/2``, the adversary shows every processor an
approximately even split of votes (hiding up to ``t`` of them), forcing all
processors to set their next estimates to fresh random bits; with high
probability the coin flips deviate from an even split by only ``O(sqrt(n))``
— far less than the ``Omega(n)`` margin the adversary can absorb — so the
blocking schedule can be repeated for exponentially many windows.

:class:`SplitVoteAdversary` implements exactly that delivery strategy (no
resets).  :class:`AdaptiveResettingAdversary` adds the strongly adaptive
adversary's resetting power, up to ``t`` resets per window — which
*weakens* the split: a reset processor sits out the next window while it
resynchronises, so only ``n - t`` processors vote, and with fewer voters
the minority count that the ordering block needs can only shrink.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.determinism import seeded_rng
from repro.adversaries.base import senders_excluding
from repro.simulation.engine import Engine
from repro.simulation.windows import WindowAdversary, WindowSpec


def _default_block_threshold(engine: Engine) -> int:
    """The vote count the adversary must keep every processor below.

    For the reset-tolerant protocol this is the adoption threshold ``T3``
    (staying below it forces a coin flip); protocols without explicit
    thresholds fall back to a simple majority of ``n``.
    """
    protocol = engine.processors[0].protocol
    thresholds = getattr(protocol, "thresholds", None)
    if thresholds is not None:
        return thresholds.t3
    majority = getattr(protocol, "majority_threshold", None)
    if callable(majority):
        return int(majority())
    return engine.n // 2 + 1


class SplitVoteAdversary(WindowAdversary):
    """Keeps every processor's delivered votes below the adoption threshold.

    Each window the adversary inspects the estimate every processor is about
    to send (full information), and for every receiver excludes up to ``t``
    senders — preferentially those voting for the globally more popular
    value — so that neither value reaches the blocking threshold among the
    delivered votes.  When the coin flips are so lopsided that this is
    impossible, the adversary has lost control and simply delivers
    everything (the execution then decides within a couple of windows, which
    is exactly the geometric escape the analytic model predicts).

    Args:
        block_threshold: vote count to keep each receiver below; defaults to
            the protocol's adoption threshold ``T3``.
        seed: randomness for tie-breaking among equally useful exclusions.
    """

    def __init__(self, block_threshold: Optional[int] = None,
                 seed: Optional[int] = None) -> None:
        self.block_threshold = block_threshold
        self.rng = seeded_rng(seed)
        self.blocked_windows = 0
        self.lost_control_windows = 0

    # ------------------------------------------------------------------
    def _threshold(self, engine: Engine) -> int:
        if self.block_threshold is not None:
            return self.block_threshold
        return _default_block_threshold(engine)

    def _voters_by_value(self, engine: Engine
                         ) -> Tuple[List[int], List[int]]:
        """Partition live processors by the estimate they are about to send."""
        zeros, ones = [], []
        for proc in engine.processors:
            if proc.crashed:
                continue
            estimate = proc.protocol.current_estimate()
            if estimate == 0:
                zeros.append(proc.pid)
            elif estimate == 1:
                ones.append(proc.pid)
        return zeros, ones

    def _exclusions(self, engine: Engine, zeros: List[int],
                    ones: List[int]) -> Optional[FrozenSet[int]]:
        """Senders to hide from every receiver, or ``None`` if infeasible.

        The same exclusion set works for every receiver because the goal —
        keeping both value counts below the threshold — does not depend on
        the receiver's identity.  ``zeros`` and ``ones`` are the voters by
        value (:meth:`_voters_by_value`).
        """
        threshold = self._threshold(engine)
        t = engine.t
        need_hide_zero = max(0, len(zeros) - (threshold - 1))
        need_hide_one = max(0, len(ones) - (threshold - 1))
        if need_hide_zero + need_hide_one > t:
            return None
        hidden = (self.rng.sample(zeros, need_hide_zero)
                  + self.rng.sample(ones, need_hide_one))
        return frozenset(hidden)

    def _ordering_block(self, engine: Engine, zeros: List[int],
                        ones: List[int]) -> Optional[FrozenSet[int]]:
        """Block by scheduling the receiving steps, if the protocol allows it.

        Protocols that act on the *first* ``W`` messages of the current
        round (``W = T1`` for the reset-tolerant algorithm, ``n - t`` for
        Ben-Or) can be starved by delivering the majority-value votes last:
        the processed prefix then contains every minority vote and only
        ``W - minority`` majority votes.  Blocking succeeds whenever that
        count stays below the threshold — i.e. whenever the minority side
        still has more than ``W - threshold`` voters — which requires a far
        larger coin-flip deviation to defeat than exclusion alone.

        Returns:
            The senders to deliver last (the majority voters), or ``None``
            if ordering alone cannot block.
        """
        waiting = engine.processors[0].protocol.waiting_threshold()
        if waiting is None:
            return None
        threshold = self._threshold(engine)
        senders_total = sum(1 for proc in engine.processors
                            if not proc.crashed and proc.protocol.will_send())
        if len(zeros) >= len(ones):
            majority_pool, majority_count = zeros, len(zeros)
        else:
            majority_pool, majority_count = ones, len(ones)
        minority_count = len(zeros) + len(ones) - majority_count
        majority_in_prefix = max(0, waiting - (senders_total
                                               - majority_count))
        minority_in_prefix = min(minority_count, waiting)
        if majority_in_prefix > threshold - 1 or \
                minority_in_prefix > threshold - 1:
            return None
        return frozenset(majority_pool)

    def _resets(self, engine: Engine, zeros: List[int],
                ones: List[int]) -> FrozenSet[int]:
        """Processors to reset at the end of the window (none here)."""
        return frozenset()

    # ------------------------------------------------------------------
    def next_window(self, engine: Engine) -> WindowSpec:
        """Block by ordering, else by exclusion, else deliver everything.

        The voters are partitioned once per window; the partition draws
        no randomness, so every helper sees the same one.
        """
        zeros, ones = self._voters_by_value(engine)
        n = engine.n
        everyone = frozenset(range(n))
        deliver_last = self._ordering_block(engine, zeros, ones)
        if deliver_last is not None:
            self.blocked_windows += 1
            senders = everyone
        else:
            deliver_last = frozenset()
            exclusions = self._exclusions(engine, zeros, ones)
            if exclusions is None:
                self.lost_control_windows += 1
                senders = everyone
            else:
                self.blocked_windows += 1
                senders = senders_excluding(n, exclusions)
        return WindowSpec.uniform(n, senders,
                                  resets=self._resets(engine, zeros, ones),
                                  deliver_last=deliver_last)


class AdaptiveResettingAdversary(SplitVoteAdversary):
    """Split-vote delivery plus adaptive resetting failures.

    On top of the split-vote delivery schedule, this adversary uses the
    strongly adaptive power to *reset* up to ``t`` processors at the end of
    each window, chosen among those holding the globally more popular
    estimate.  The resets make the adversary *weaker*, not stronger: a
    processor reset at the end of window ``w`` sits out window ``w + 1``
    while it resynchronises (``will_send`` is false), so only ``n - t``
    processors vote, and the ordering block holds only while the minority
    count among the voters exceeds ``T1 - T3`` — a count that removing
    voters can only shrink.  Expected windows therefore follow the
    split-vote closed form with ``n - t`` coins in place of ``n``.

    Experiment E1 uses this adversary to exercise the full strongly
    adaptive model (delivery scheduling *and* resets); E2 runs it by
    default.
    """

    def __init__(self, block_threshold: Optional[int] = None,
                 seed: Optional[int] = None,
                 reset_fraction: float = 1.0) -> None:
        super().__init__(block_threshold=block_threshold, seed=seed)
        if not 0.0 <= reset_fraction <= 1.0:
            raise ValueError("reset_fraction must lie in [0, 1]")
        self.reset_fraction = reset_fraction
        self.total_resets_issued = 0

    def _resets(self, engine: Engine, zeros: List[int],
                ones: List[int]) -> FrozenSet[int]:
        """Up to ``t * reset_fraction`` holders of the popular estimate."""
        budget = int(engine.t * self.reset_fraction)
        if budget <= 0:
            return frozenset()
        majority_pool = zeros if len(zeros) >= len(ones) else ones
        targets = majority_pool[:budget]
        self.total_resets_issued += len(targets)
        return frozenset(targets)


__all__ = ["SplitVoteAdversary", "AdaptiveResettingAdversary"]
