"""Executable machinery behind the Theorem 5 lower bound.

The lower bound's proof has four moving parts:

1. the base decision sets ``Z_0^0`` and ``Z_1^0`` (reachable configurations
   in which some processor has decided 0, respectively 1) are Hamming-
   separated by more than ``t`` (Lemma 11);
2. Talagrand's inequality turns that separation into an upper bound on the
   probability that the product distribution induced by one acceptable
   window lands in a decision set (Lemma 9 / Lemma 13);
3. given a configuration outside ``Z_0^k ∪ Z_1^k``, interpolating between a
   window that avoids ``Z_0^{k-1}`` and one that avoids ``Z_1^{k-1}`` yields
   a single window avoiding both with high probability (Lemma 14);
4. iterating the argument for ``E = C e^{alpha n}`` windows, starting from
   an input assignment found by interpolating between the all-0 and all-1
   inputs, keeps the execution undecided with probability at least 1/2.

The sets ``Z_b^k`` for ``k >= 1`` are defined by universal quantification
over windows and cannot be enumerated, but every quantitative ingredient
above can be *measured* on concrete algorithms at small ``n``:  this module
provides Monte-Carlo samplers of reachable decision configurations, the
Hamming-separation measurement, window-outcome probability estimators, the
Lemma 14 hybrid-window sweep, and the input-interpolation search.  The E3
experiment uses these to check each ingredient numerically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.adversaries.benign import (BenignAdversary,
                                      RandomSchedulerAdversary)
from repro.adversaries.interpolation import interpolate_windows
from repro.adversaries.split_vote import SplitVoteAdversary
from repro.core.talagrand import separation_threshold
from repro.protocols.base import ProtocolFactory
from repro.simulation.configuration import Configuration, set_distance
from repro.simulation.engine import Engine
from repro.simulation.windows import WindowAdversary, WindowSpec


# ----------------------------------------------------------------------
# Sampling reachable decision configurations (empirical Z_0^0 and Z_1^0).
# ----------------------------------------------------------------------
def sample_decision_configurations(
        protocol_cls, n: int, t: int, trials: int,
        seed: Optional[int] = None, max_windows: int = 64,
        **protocol_kwargs) -> Tuple[List[Configuration], List[Configuration]]:
    """Sample reachable configurations with a 0-decision and a 1-decision.

    Executions are run from a mix of input assignments (unanimous and
    random) under benign and random schedulers — all legal strongly adaptive
    schedules — and every recorded configuration containing a decision is
    binned by the decided value.

    Returns:
        ``(zero_configurations, one_configurations)`` — empirical samples of
        the paper's sets ``Z_0^0`` and ``Z_1^0``.
    """
    rng = random.Random(seed)
    zeros: List[Configuration] = []
    ones: List[Configuration] = []
    for trial in range(trials):
        choice = trial % 4
        if choice == 0:
            inputs = [0] * n
        elif choice == 1:
            inputs = [1] * n
        else:
            inputs = [rng.getrandbits(1) for _ in range(n)]
        adversary: WindowAdversary
        if trial % 2 == 0:
            adversary = BenignAdversary()
        else:
            adversary = RandomSchedulerAdversary(seed=rng.getrandbits(32))
        factory = ProtocolFactory(protocol_cls, n=n, t=t, **protocol_kwargs)
        engine = Engine(factory, inputs, seed=rng.getrandbits(32),
                        record_configurations=True)
        engine.run(adversary, max_windows=max_windows, stop_when="all")
        for configuration in engine.configurations:
            if configuration.has_decision(0):
                zeros.append(configuration)
            if configuration.has_decision(1):
                ones.append(configuration)
    return zeros, ones


@dataclass
class SeparationReport:
    """Measured Hamming separation of the empirical decision sets.

    Attributes:
        n: number of processors.
        t: fault bound.
        zero_samples: how many 0-decision configurations were sampled.
        one_samples: how many 1-decision configurations were sampled.
        min_distance: smallest Hamming distance observed between a
            0-decision and a 1-decision configuration (``None`` when either
            sample is empty).
        required: the separation Lemma 11 asserts (strictly more than ``t``).
        satisfied: whether the measured separation exceeds ``t``.
    """

    n: int
    t: int
    zero_samples: int
    one_samples: int
    min_distance: Optional[int]
    required: int
    satisfied: bool


def decision_set_separation(protocol_cls, n: int, t: int, trials: int,
                            seed: Optional[int] = None,
                            **protocol_kwargs) -> SeparationReport:
    """Measure the Lemma 11 separation ``Delta(Z_0^0, Z_1^0) > t`` empirically."""
    zeros, ones = sample_decision_configurations(
        protocol_cls, n=n, t=t, trials=trials, seed=seed, **protocol_kwargs)
    distance = set_distance(zeros, ones)
    satisfied = distance is None or distance > t
    return SeparationReport(n=n, t=t, zero_samples=len(zeros),
                            one_samples=len(ones), min_distance=distance,
                            required=t + 1, satisfied=satisfied)


# ----------------------------------------------------------------------
# Window-outcome probability estimation.
# ----------------------------------------------------------------------
def estimate_window_outcome(engine: Engine, spec: WindowSpec,
                            predicate: Callable[[Engine], bool],
                            samples: int, horizon: int = 0,
                            seed: Optional[int] = None,
                            continuation: Optional[Callable[[], WindowAdversary]] = None
                            ) -> float:
    """Estimate the probability that applying ``spec`` satisfies ``predicate``.

    The engine is cloned and reseeded for every sample (fresh local
    randomness), the window is applied, and optionally ``horizon`` further
    windows are played by a continuation adversary before the predicate is
    evaluated.  This is the Monte-Carlo stand-in for "the product
    distribution induced by applying ``R, S_1, ..., S_n``" in Lemmas 13-14.
    """
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        clone = engine.clone()
        clone.reseed(rng.getrandbits(64))
        clone.run_window(spec)
        if horizon > 0:
            adversary = (continuation() if continuation is not None
                         else SplitVoteAdversary(seed=rng.getrandbits(32)))
            for _ in range(horizon):
                if clone.any_decided():
                    break
                clone.run_window(adversary.next_window(clone))
        if predicate(clone):
            hits += 1
    return hits / samples


def estimate_decision_probability(engine: Engine, spec: WindowSpec,
                                  value: Optional[int], samples: int,
                                  horizon: int = 0,
                                  seed: Optional[int] = None) -> float:
    """Probability that applying ``spec`` (plus a horizon) yields a decision.

    Args:
        value: the decision value of interest, or ``None`` for "any value".
    """
    if value is None:
        predicate = lambda eng: eng.any_decided()
    else:
        predicate = lambda eng: value in {output for output in eng.outputs()
                                          if output is not None}
    return estimate_window_outcome(engine, spec, predicate, samples=samples,
                                   horizon=horizon, seed=seed)


# ----------------------------------------------------------------------
# Lemma 14: the hybrid-window sweep.
# ----------------------------------------------------------------------
@dataclass
class HybridPoint:
    """Estimated decision probabilities for one interpolation index ``j``.

    Attributes:
        j: the interpolation index (the first ``j`` coordinates follow the
            zero-avoiding window, the rest the one-avoiding window).
        zero_probability: estimated probability of reaching a 0-decision.
        one_probability: estimated probability of reaching a 1-decision.
    """

    j: int
    zero_probability: float
    one_probability: float

    @property
    def worst(self) -> float:
        """The larger of the two probabilities (what Lemma 14 minimises)."""
        return max(self.zero_probability, self.one_probability)


def hybrid_window_sweep(engine: Engine, spec_zero_avoider: WindowSpec,
                        spec_one_avoider: WindowSpec, samples: int,
                        horizon: int = 1, seed: Optional[int] = None,
                        points: Optional[Sequence[int]] = None
                        ) -> List[HybridPoint]:
    """Evaluate the Lemma 14 hybrids between two candidate windows.

    Lemma 14 argues that between a window avoiding ``Z_1^{k-1}`` and one
    avoiding ``Z_0^{k-1}`` there is an interpolation index ``j*`` whose
    hybrid window avoids *both* with probability ``1 - 2 eta``.  This sweep
    measures the decision probabilities of each hybrid so the experiment can
    exhibit such a ``j*`` concretely.
    """
    n = engine.n
    if points is None:
        points = list(range(0, n + 1))
    rng = random.Random(seed)
    sweep: List[HybridPoint] = []
    for j in points:
        hybrid = interpolate_windows(spec_zero_avoider, spec_one_avoider, j,
                                     max_resets=engine.t)
        zero_probability = estimate_decision_probability(
            engine, hybrid, value=0, samples=samples, horizon=horizon,
            seed=rng.getrandbits(32))
        one_probability = estimate_decision_probability(
            engine, hybrid, value=1, samples=samples, horizon=horizon,
            seed=rng.getrandbits(32))
        sweep.append(HybridPoint(j=j, zero_probability=zero_probability,
                                 one_probability=one_probability))
    return sweep


def best_hybrid(sweep: Sequence[HybridPoint]) -> HybridPoint:
    """The interpolation point minimising the worst decision probability."""
    if not sweep:
        raise ValueError("empty hybrid sweep")
    return min(sweep, key=lambda point: point.worst)


# ----------------------------------------------------------------------
# Input interpolation (the start of the Theorem 5 proof).
# ----------------------------------------------------------------------
@dataclass
class InputInterpolationResult:
    """Outcome of the all-0 to all-1 input interpolation.

    Attributes:
        inputs: the chosen input assignment ``delta``.
        zero_probability: estimated probability of a quick 0-decision under
            the blocking adversary.
        one_probability: estimated probability of a quick 1-decision.
        sweep: per-interpolation-step probabilities, indexed by the number
            of processors whose input is 1.
    """

    inputs: Tuple[int, ...]
    zero_probability: float
    one_probability: float
    sweep: List[Tuple[int, float, float]]


def find_balanced_inputs(protocol_cls, n: int, t: int, samples: int = 8,
                         horizon: int = 3, seed: Optional[int] = None,
                         **protocol_kwargs) -> InputInterpolationResult:
    """Interpolate between the all-0 and all-1 inputs as in Theorem 5.

    The all-0 input cannot lie in ``Z_1^E`` (validity) and the all-1 input
    cannot lie in ``Z_0^E``; flipping one input bit at a time must therefore
    cross an assignment outside both.  Empirically we estimate, for each
    prefix-of-ones assignment, the probability that the split-vote adversary
    fails to prevent a 0-decision (respectively 1-decision) within a short
    horizon, and return the assignment minimising the worse of the two.
    """
    rng = random.Random(seed)
    sweep: List[Tuple[int, float, float]] = []
    best_inputs: Optional[Tuple[int, ...]] = None
    best_worst = float("inf")
    best_zero = best_one = 0.0
    for ones_count in range(n + 1):
        inputs = tuple([1] * ones_count + [0] * (n - ones_count))
        zero_hits = 0
        one_hits = 0
        for _ in range(samples):
            factory = ProtocolFactory(protocol_cls, n=n, t=t,
                                      **protocol_kwargs)
            engine = Engine(factory, list(inputs), seed=rng.getrandbits(32))
            adversary = SplitVoteAdversary(seed=rng.getrandbits(32))
            engine.run(adversary, max_windows=horizon, stop_when="first")
            decided_values = {output for output in engine.outputs()
                              if output is not None}
            if 0 in decided_values:
                zero_hits += 1
            if 1 in decided_values:
                one_hits += 1
        zero_probability = zero_hits / samples
        one_probability = one_hits / samples
        sweep.append((ones_count, zero_probability, one_probability))
        worst = max(zero_probability, one_probability)
        if worst < best_worst:
            best_worst = worst
            best_inputs = inputs
            best_zero, best_one = zero_probability, one_probability
    assert best_inputs is not None
    return InputInterpolationResult(inputs=best_inputs,
                                    zero_probability=best_zero,
                                    one_probability=best_one, sweep=sweep)


# ----------------------------------------------------------------------
# Putting the pieces together: a one-call lower-bound verification report.
# ----------------------------------------------------------------------
@dataclass
class LowerBoundReport:
    """Summary of the E3 lower-bound machinery checks for one (n, t).

    Attributes:
        n, t: system size and fault bound.
        separation: the Lemma 11 separation measurement.
        tau: the Lemma 13 threshold ``exp(-t^2/8n)``.
        hybrid_best: the best Lemma 14 hybrid point found.
        endpoint_worst: the worse of the two endpoint windows' worst-case
            decision probabilities, for comparison with the hybrid.
        balanced_inputs: the Theorem 5 input assignment found by
            interpolation.
    """

    n: int
    t: int
    separation: SeparationReport
    tau: float
    hybrid_best: HybridPoint
    endpoint_worst: float
    balanced_inputs: InputInterpolationResult


def lower_bound_report(protocol_cls, n: int, t: int,
                       separation_trials: int = 12, samples: int = 8,
                       seed: Optional[int] = None,
                       **protocol_kwargs) -> LowerBoundReport:
    """Run every lower-bound machinery check at small ``n`` (experiment E3)."""
    rng = random.Random(seed)
    separation = decision_set_separation(
        protocol_cls, n=n, t=t, trials=separation_trials,
        seed=rng.getrandbits(32), **protocol_kwargs)
    balanced = find_balanced_inputs(protocol_cls, n=n, t=t, samples=samples,
                                    seed=rng.getrandbits(32),
                                    **protocol_kwargs)
    factory = ProtocolFactory(protocol_cls, n=n, t=t, **protocol_kwargs)
    engine = Engine(factory, list(balanced.inputs), seed=rng.getrandbits(32))
    # Endpoint windows: silence-and-reset the first t (good at protecting
    # the suffix's view) versus the last t processors, as in Lemma 13.
    first = frozenset(range(t)) if t > 0 else frozenset()
    last = frozenset(range(n - t, n)) if t > 0 else frozenset()
    everyone = frozenset(range(n))
    spec_a = WindowSpec.uniform(n, everyone - first, resets=first)
    spec_b = WindowSpec.uniform(n, everyone - last, resets=last)
    sweep = hybrid_window_sweep(engine, spec_a, spec_b, samples=samples,
                                seed=rng.getrandbits(32),
                                points=list(range(0, n + 1,
                                                  max(1, n // 8))))
    best = best_hybrid(sweep)
    endpoints = [point for point in sweep if point.j in (0, n)]
    endpoint_worst = max((point.worst for point in endpoints), default=1.0)
    return LowerBoundReport(n=n, t=t, separation=separation,
                            tau=separation_threshold(n, t),
                            hybrid_best=best, endpoint_worst=endpoint_worst,
                            balanced_inputs=balanced)


__all__ = [
    "sample_decision_configurations",
    "SeparationReport",
    "decision_set_separation",
    "estimate_window_outcome",
    "estimate_decision_probability",
    "HybridPoint",
    "hybrid_window_sweep",
    "best_hybrid",
    "InputInterpolationResult",
    "find_balanced_inputs",
    "LowerBoundReport",
    "lower_bound_report",
]
