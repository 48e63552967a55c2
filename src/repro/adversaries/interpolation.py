"""The lookahead adversary: a computable realisation of the Theorem 5 strategy.

The lower-bound adversary of Theorem 5 inspects the current configuration,
determines the largest ``k`` with ``sigma`` outside ``Z_0^k ∪ Z_1^k``, and
applies the acceptable window furnished by Lemma 14 — an *interpolation*
between a window that is good at avoiding a 0-decision and one that is good
at avoiding a 1-decision — to stay outside ``Z_0^{k-1} ∪ Z_1^{k-1}`` with
high probability.

The sets ``Z_b^k`` are defined by universal quantification over windows and
are not directly computable, so this module realises the strategy with
Monte-Carlo estimation: for a family of candidate windows (including the
Lemma 14 hybrids between the two most promising endpoints) it estimates, by
cloning the engine and sampling continuations, the probability that a
decision occurs within a short horizon, and plays the candidate minimising
that probability.  At small ``n`` this adversary demonstrably delays
decisions longer than any fixed schedule, which is the behaviour Theorem 5's
construction predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.determinism import seeded_rng
from repro.adversaries.base import senders_excluding
from repro.adversaries.split_vote import SplitVoteAdversary
from repro.simulation.engine import Engine
from repro.simulation.windows import WindowAdversary, WindowSpec


def interpolate_windows(spec_a: WindowSpec, spec_b: WindowSpec, j: int,
                        max_resets: Optional[int] = None) -> WindowSpec:
    """The Lemma 14 hybrid of two windows at interpolation index ``j``.

    The hybrid gives processors ``0..j-1`` (the first ``j`` coordinates) the
    sender sets of ``spec_a`` and the remaining processors those of
    ``spec_b``; its reset set takes ``spec_a``'s choices on the first ``j``
    identities and ``spec_b``'s on the rest.  In the proof both reset sets
    live inside ``{1, ..., t}``, so the hybrid automatically stays within
    the budget; for arbitrary concrete windows the optional ``max_resets``
    cap trims the union back to an admissible size.
    """
    n = len(spec_a.senders_for)
    if len(spec_b.senders_for) != n:
        raise ValueError("cannot interpolate windows of different sizes")
    senders_for = tuple(
        spec_a.senders_for[i] if i < j else spec_b.senders_for[i]
        for i in range(n))
    resets = frozenset(pid for pid in spec_a.resets if pid < j) | \
        frozenset(pid for pid in spec_b.resets if pid >= j)
    crashes = frozenset(pid for pid in spec_a.crashes if pid < j) | \
        frozenset(pid for pid in spec_b.crashes if pid >= j)
    if max_resets is not None and len(resets) > max_resets:
        resets = frozenset(sorted(resets)[:max_resets])
    if max_resets is not None and len(crashes) > max_resets:
        crashes = frozenset(sorted(crashes)[:max_resets])
    return WindowSpec(senders_for=senders_for, resets=resets, crashes=crashes)


@dataclass
class CandidateEvaluation:
    """Monte-Carlo evaluation of one candidate window.

    Attributes:
        spec: the candidate window.
        decision_probability: estimated probability that some processor
            decides within the lookahead horizon after playing this window.
        zero_probability: estimated probability of a 0-decision.
        one_probability: estimated probability of a 1-decision.
    """

    spec: WindowSpec
    decision_probability: float
    zero_probability: float
    one_probability: float


class LookaheadAdversary(WindowAdversary):
    """Chooses each window by Monte-Carlo lookahead over candidates.

    Args:
        horizon: number of follow-up windows simulated when evaluating a
            candidate (the continuation uses the split-vote strategy, the
            natural "keep blocking" policy).
        samples: Monte-Carlo samples per candidate.
        include_hybrids: also evaluate the Lemma 14 hybrids between the two
            best single-exclusion candidates.
        hybrid_points: how many interpolation indices ``j`` to try.
        seed: randomness for sampling and tie-breaking.
        max_candidates: cap on the number of candidate windows evaluated per
            step (keeps the adversary affordable at larger ``n``).
    """

    def __init__(self, horizon: int = 3, samples: int = 8,
                 include_hybrids: bool = True, hybrid_points: int = 4,
                 seed: Optional[int] = None,
                 max_candidates: int = 12) -> None:
        self.horizon = horizon
        self.samples = samples
        self.include_hybrids = include_hybrids
        self.hybrid_points = hybrid_points
        self.rng = seeded_rng(seed)
        self.max_candidates = max_candidates
        self.evaluations: List[CandidateEvaluation] = []

    # ------------------------------------------------------------------
    # Candidate generation.
    # ------------------------------------------------------------------
    def _base_candidates(self, engine: Engine) -> List[WindowSpec]:
        n, t = engine.n, engine.t
        candidates = [WindowSpec.full_delivery(n)]
        if t > 0:
            # Silence the first t / the last t processors — the canonical
            # window pair (R, S, ..., S) and (R', S', ..., S') appearing in
            # the proofs of Lemmas 11, 13 and 14.
            first = frozenset(range(t))
            last = frozenset(range(n - t, n))
            candidates.append(WindowSpec.uniform(
                n, senders_excluding(n, first), resets=first))
            candidates.append(WindowSpec.uniform(
                n, senders_excluding(n, last), resets=last))
            # Value-targeted exclusions: silence voters of each value.
            zeros, ones = [], []
            for proc in engine.processors:
                estimate = proc.protocol.current_estimate()
                if estimate == 0:
                    zeros.append(proc.pid)
                elif estimate == 1:
                    ones.append(proc.pid)
            for pool in (zeros, ones):
                if pool:
                    excluded = frozenset(pool[:t])
                    candidates.append(WindowSpec.uniform(
                        n, senders_excluding(n, excluded), resets=excluded))
            # The split-vote window (balanced exclusion, no resets).
            split = SplitVoteAdversary(seed=self.rng.getrandbits(32))
            candidates.append(split.next_window(engine))
        return candidates[:self.max_candidates]

    def _with_hybrids(self, engine: Engine,
                      evaluated: List[CandidateEvaluation]
                      ) -> List[WindowSpec]:
        """Hybridise the best zero-avoider with the best one-avoider."""
        if len(evaluated) < 2:
            return []
        best_avoid_zero = min(evaluated, key=lambda e: e.zero_probability)
        best_avoid_one = min(evaluated, key=lambda e: e.one_probability)
        if best_avoid_zero.spec == best_avoid_one.spec:
            return []
        n = engine.n
        indices = sorted({max(1, round(frac * n))
                          for frac in
                          (i / (self.hybrid_points + 1)
                           for i in range(1, self.hybrid_points + 1))})
        return [interpolate_windows(best_avoid_zero.spec,
                                    best_avoid_one.spec, j,
                                    max_resets=engine.t)
                for j in indices]

    # ------------------------------------------------------------------
    # Monte-Carlo evaluation.
    # ------------------------------------------------------------------
    def _evaluate(self, engine: Engine,
                  spec: WindowSpec) -> CandidateEvaluation:
        decisions = 0
        zeros = 0
        ones = 0
        for _ in range(self.samples):
            clone = engine.clone()
            clone.reseed(self.rng.getrandbits(64))
            clone.run_window(spec)
            continuation = SplitVoteAdversary(seed=self.rng.getrandbits(32))
            for _ in range(self.horizon):
                if clone.any_decided():
                    break
                clone.run_window(continuation.next_window(clone))
            if clone.any_decided():
                decisions += 1
                decided_values = {output for output in clone.outputs()
                                  if output is not None}
                if 0 in decided_values:
                    zeros += 1
                if 1 in decided_values:
                    ones += 1
        samples = float(self.samples)
        return CandidateEvaluation(
            spec=spec,
            decision_probability=decisions / samples,
            zero_probability=zeros / samples,
            one_probability=ones / samples)

    def next_window(self, engine: Engine) -> WindowSpec:
        candidates = self._base_candidates(engine)
        evaluated = [self._evaluate(engine, spec) for spec in candidates]
        if self.include_hybrids:
            hybrids = self._with_hybrids(engine, evaluated)
            evaluated.extend(self._evaluate(engine, spec)
                             for spec in hybrids)
        self.evaluations = evaluated
        best = min(evaluated, key=lambda e: (e.decision_probability,
                                             max(e.zero_probability,
                                                 e.one_probability)))
        return best.spec


__all__ = ["interpolate_windows", "CandidateEvaluation", "LookaheadAdversary"]
