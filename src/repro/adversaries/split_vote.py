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
resets), and :class:`AdaptiveResettingAdversary` strengthens it with the
strongly adaptive adversary's resetting power, erasing up to ``t``
majority-voting processors per window so their votes vanish from the next
round entirely.
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

    def _exclusions(self, engine: Engine) -> Optional[FrozenSet[int]]:
        """Senders to hide from every receiver, or ``None`` if infeasible.

        The same exclusion set works for every receiver because the goal —
        keeping both value counts below the threshold — does not depend on
        the receiver's identity.
        """
        threshold = self._threshold(engine)
        t = engine.t
        zeros, ones = self._voters_by_value(engine)
        need_hide_zero = max(0, len(zeros) - (threshold - 1))
        need_hide_one = max(0, len(ones) - (threshold - 1))
        if need_hide_zero + need_hide_one > t:
            return None
        hidden = (self.rng.sample(zeros, need_hide_zero)
                  + self.rng.sample(ones, need_hide_one))
        return frozenset(hidden)

    def _ordering_block(self, engine: Engine) -> Optional[WindowSpec]:
        """Block by scheduling the receiving steps, if the protocol allows it.

        Protocols that act on the *first* ``W`` messages of the current
        round (``W = T1`` for the reset-tolerant algorithm, ``n - t`` for
        Ben-Or) can be starved by delivering the majority-value votes last:
        the processed prefix then contains every minority vote and only
        ``W - minority`` majority votes.  Blocking succeeds whenever that
        count stays below the threshold — i.e. whenever the minority side
        still has more than ``W - threshold`` voters — which requires a far
        larger coin-flip deviation to defeat than exclusion alone.
        """
        waiting = engine.processors[0].protocol.waiting_threshold()
        if waiting is None:
            return None
        threshold = self._threshold(engine)
        zeros, ones = self._voters_by_value(engine)
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
        everyone = frozenset(range(engine.n))
        return WindowSpec.uniform(engine.n, everyone,
                                  deliver_last=frozenset(majority_pool))

    # ------------------------------------------------------------------
    def next_window(self, engine: Engine) -> WindowSpec:
        ordering_spec = self._ordering_block(engine)
        if ordering_spec is not None:
            self.blocked_windows += 1
            return ordering_spec
        exclusions = self._exclusions(engine)
        if exclusions is None:
            self.lost_control_windows += 1
            return WindowSpec.full_delivery(engine.n)
        self.blocked_windows += 1
        senders = senders_excluding(engine.n, exclusions)
        return WindowSpec.uniform(engine.n, senders)


class AdaptiveResettingAdversary(SplitVoteAdversary):
    """Split-vote delivery plus adaptive resetting failures.

    On top of hiding up to ``t`` majority votes from every receiver, this
    adversary uses the strongly adaptive power to *reset* up to ``t``
    processors at the end of each window.  Reset victims are chosen among
    the processors whose estimates most threaten the balance (those holding
    the globally more popular value), plus any processor that managed to
    decide — erasing a decided processor's memory does not un-decide it (the
    output bit survives a reset), but removing the most lopsided estimates
    keeps the next round's vote split even tighter.

    This is the concrete adversary used in experiment E1/E2 to exercise the
    full strongly adaptive model (delivery scheduling *and* resets).
    """

    def __init__(self, block_threshold: Optional[int] = None,
                 seed: Optional[int] = None,
                 reset_fraction: float = 1.0) -> None:
        super().__init__(block_threshold=block_threshold, seed=seed)
        if not 0.0 <= reset_fraction <= 1.0:
            raise ValueError("reset_fraction must lie in [0, 1]")
        self.reset_fraction = reset_fraction
        self.total_resets_issued = 0

    def _reset_targets(self, engine: Engine) -> FrozenSet[int]:
        budget = int(engine.t * self.reset_fraction)
        if budget <= 0:
            return frozenset()
        zeros, ones = self._voters_by_value(engine)
        majority_pool = zeros if len(zeros) >= len(ones) else ones
        targets = majority_pool[:budget]
        self.total_resets_issued += len(targets)
        return frozenset(targets)

    def next_window(self, engine: Engine) -> WindowSpec:
        base = super().next_window(engine)
        resets = self._reset_targets(engine)
        return WindowSpec(senders_for=base.senders_for, resets=resets,
                          crashes=base.crashes,
                          deliver_last=base.deliver_last)


__all__ = ["SplitVoteAdversary", "AdaptiveResettingAdversary"]
