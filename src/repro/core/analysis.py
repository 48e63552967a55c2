"""Closed-form running-time analysis of the reset-tolerant algorithm.

Section 3 of the paper argues that against an adversary that splits the
inputs evenly and then keeps showing every processor a near-even split of
votes, the threshold-voting algorithm takes exponential time: since
``T3 > n/2`` (and ``T2 > (1/2 + c) n``), a decision requires a strong
majority among what are essentially ``n`` independent fair coins, which
happens with exponentially small probability per round.

This module turns that argument into concrete numbers: the per-round
probability that the adversary can no longer keep every processor below the
thresholds, and the implied expected number of acceptable windows — the
analytic curve that the E2 experiment compares against simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.core.thresholds import ThresholdConfig


def binomial_tail_at_least(n: int, k: int, p: float = 0.5) -> float:
    """``P[Binomial(n, p) >= k]`` (1.0 when ``k <= 0``, 0.0 when ``k > n``).

    Summed exactly in integers over the common denominator ``den ** n``
    (``p = num / den``), so the result is the correctly rounded float of
    the true tail.
    """
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    num, den = float(p).as_integer_ratio()
    choose, total = math.comb(n, k), 0
    for i in range(k, n + 1):
        total += choose * num ** i * (den - num) ** (n - i)
        choose = choose * (n - i) // (i + 1)
    return total / den ** n


def probability_all_coins_agree(n: int) -> float:
    """Probability that ``n`` independent fair coins all land the same way.

    This is the ``2^{1-n}`` bound the termination proof of Theorem 4 uses:
    in every acceptable window there is at least this much probability that
    all processors adopt the same estimate, after which they decide.
    """
    return math.pow(2.0, 1 - n)


@dataclass(frozen=True)
class SplitVoteAnalysis:
    """Analytic round/window statistics against the split-vote adversary.

    Attributes:
        thresholds: the protocol's threshold configuration.
        escape_probability: per-window probability that the random estimates
            are so lopsided that the adversary (who can hide at most ``t``
            votes from each processor, and reset at most ``t`` more) cannot
            keep every processor below the adoption threshold ``T3``.
        expected_windows: geometric expectation ``1 / escape_probability``
            (plus the constant number of windows needed to finish once the
            adversary has lost control).
    """

    thresholds: ThresholdConfig
    escape_probability: float
    expected_windows: float


def split_vote_analysis(thresholds: ThresholdConfig) -> SplitVoteAnalysis:
    """Analytic expected-window count against the vote-splitting adversary.

    After a round in which no value reached ``T3``, every processor's next
    estimate is an independent fair coin.  Let ``K ~ Binomial(n, 1/2)`` be
    the number of ones among the next round's estimates.  The adversary can
    hide up to ``n - T1 >= 2t`` votes from each processor (and additionally
    reset up to ``t`` processors), so it can keep every processor below the
    adoption threshold as long as both ``K`` and ``n - K`` stay below
    ``T3 + (n - T1)``; once the coin flips produce a majority of at least
    ``T3 + (n - T1)`` the adversary can no longer prevent every processor
    from deterministically adopting that value, after which decisions follow
    within two further windows.  The per-window escape probability is
    therefore the binomial tail at ``T3 + (n - T1)``.
    """
    n = thresholds.n
    hideable = n - thresholds.t1
    needed = thresholds.t3 + hideable
    escape = binomial_tail_at_least(n, needed) * 2.0
    escape = min(escape, 1.0)
    if escape <= 0.0:
        expected = math.inf
    else:
        expected = 1.0 / escape + 2.0
    return SplitVoteAnalysis(thresholds=thresholds,
                             escape_probability=escape,
                             expected_windows=expected)


def expected_windows_curve(configs: List[ThresholdConfig]) -> List[float]:
    """Expected windows against the split-vote adversary across a sweep."""
    return [split_vote_analysis(config).expected_windows
            for config in configs]


def unanimous_decision_windows() -> int:
    """Windows needed to decide when inputs are unanimous.

    With unanimous inputs every processor receives ``>= T1 >= T2`` identical
    votes in the very first acceptable window and decides immediately —
    the contrast the paper draws with the exponential split-input case.
    """
    return 1


def exponential_growth_rate(thresholds_by_n: List[ThresholdConfig]) -> float:
    """Fitted exponential growth rate of the analytic expected-window curve.

    Returns the least-squares slope of ``log(expected windows)`` against
    ``n``; a positive slope confirms the analytic curve is exponential in
    ``n`` for a fixed fault fraction.
    """
    points = [(config.n, split_vote_analysis(config).expected_windows)
              for config in thresholds_by_n]
    points = [(n, windows) for n, windows in points
              if math.isfinite(windows) and windows > 0]
    if len(points) < 2:
        raise ValueError("need at least two finite points to fit a slope")
    xs = [float(n) for n, _ in points]
    ys = [math.log(windows) for _, windows in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    return numerator / denominator


__all__ = [
    "binomial_tail_at_least",
    "probability_all_coins_agree",
    "SplitVoteAnalysis",
    "split_vote_analysis",
    "expected_windows_curve",
    "unanimous_decision_windows",
    "exponential_growth_rate",
]
