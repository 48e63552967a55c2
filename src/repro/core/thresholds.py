"""Threshold parameters for the paper's reset-tolerant agreement algorithm.

The Section 3 algorithm is parameterized by three thresholds
``T1 >= T2 >= T3``:

* a processor waits for ``T1`` same-round messages before acting;
* ``T2`` matching values let it *decide* (write the output bit);
* ``T3`` matching values let it *adopt* the value deterministically, and
  otherwise it flips a fresh coin.

Theorem 4 proves measure-one correctness and termination against the
strongly adaptive adversary for ``t < n/6`` whenever

    ``n - 2t >= T1 >= T2 >= T3 + t``   and   ``2*T3 > n``

(with the structural requirement ``2*T3 > T1`` so step 3 is well defined).
This module encapsulates those constraints, provides the default settings
used in the proof (``T1 = n - 2t``, ``T2 = T1``, ``T3 = n - 3t``), and
exposes the relaxed-``T2`` variants used by the threshold-ablation
experiment (E7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


class ThresholdError(ValueError):
    """Raised when a threshold configuration violates Theorem 4's constraints."""


@dataclass(frozen=True)
class ThresholdConfig:
    """A concrete (T1, T2, T3) setting for given ``n`` and ``t``.

    Attributes:
        n: number of processors.
        t: resetting-fault bound per acceptable window.
        t1: number of same-round messages a processor waits for.
        t2: matching-value count required to decide.
        t3: matching-value count required to adopt deterministically.
    """

    n: int
    t: int
    t1: int
    t2: int
    t3: int

    # ------------------------------------------------------------------
    # Constraint checks.
    # ------------------------------------------------------------------
    def violations(self) -> List[str]:
        """Human-readable list of violated Theorem 4 constraints (empty if valid)."""
        problems = []
        if not (0 <= self.t < self.n):
            problems.append(f"need 0 <= t < n, got t={self.t}, n={self.n}")
        if not (self.n - 2 * self.t >= self.t1):
            problems.append(
                f"need n - 2t >= T1 ({self.n - 2 * self.t} >= {self.t1})")
        if not (self.t1 >= self.t2):
            problems.append(f"need T1 >= T2 ({self.t1} >= {self.t2})")
        if not (self.t2 >= self.t3 + self.t):
            problems.append(
                f"need T2 >= T3 + t ({self.t2} >= {self.t3 + self.t})")
        if not (2 * self.t3 > self.n):
            problems.append(f"need 2*T3 > n ({2 * self.t3} > {self.n})")
        if not (2 * self.t3 > self.t1):
            problems.append(f"need 2*T3 > T1 ({2 * self.t3} > {self.t1})")
        if self.t3 <= 0:
            problems.append(f"need T3 > 0, got {self.t3}")
        return problems

    @property
    def valid(self) -> bool:
        """Whether all Theorem 4 constraints hold."""
        return not self.violations()

    def require_valid(self) -> "ThresholdConfig":
        """Return ``self`` if valid, otherwise raise :class:`ThresholdError`."""
        problems = self.violations()
        if problems:
            raise ThresholdError("; ".join(problems))
        return self

    # ------------------------------------------------------------------
    # Derived quantities used by the analysis module.
    # ------------------------------------------------------------------
    @property
    def decision_margin(self) -> int:
        """How far above ``n/2`` the decide threshold sits.

        Decision requires ``T2`` identical values among ``T1`` delivered
        ones; the adversary-facing obstacle is getting ``T2`` identical
        values among ``n`` sent values when it may hide up to
        ``n - T1 >= 2t`` of them.
        """
        return self.t2 - (self.n // 2)

    def describe(self) -> str:
        """One-line description for logs and experiment tables."""
        return (f"ThresholdConfig(n={self.n}, t={self.t}, T1={self.t1}, "
                f"T2={self.t2}, T3={self.t3})")


def default_thresholds(n: int, t: int) -> ThresholdConfig:
    """The settings used in the proof of Theorem 4.

    ``T1 = n - 2t``, ``T2 = T1``, ``T3 = n - 3t``.  Valid whenever
    ``t < n/6`` (for very small ``n`` the integer constraints may still
    fail; callers should check :attr:`ThresholdConfig.valid`).
    """
    config = ThresholdConfig(n=n, t=t, t1=n - 2 * t, t2=n - 2 * t,
                             t3=n - 3 * t)
    return config.require_valid()


def resolve_thresholds(n: int, t: int,
                       thresholds: Optional[ThresholdConfig] = None,
                       validate_thresholds: bool = True) -> ThresholdConfig:
    """The (T1, T2, T3) a reset-tolerant processor runs with.

    The one resolution rule, shared by the protocol and the batched
    backend: the Theorem 4 defaults when ``thresholds`` is omitted, else
    ``thresholds`` itself, checked against Theorem 4 unless
    ``validate_thresholds`` is false.  ``T1 >= 1`` is required even
    then: a processor waiting for zero votes never finishes a round.

    Raises:
        ThresholdError: on a violated constraint.
    """
    if thresholds is None:
        return default_thresholds(n, t)
    if validate_thresholds:
        return thresholds.require_valid()
    if thresholds.t1 < 1:
        raise ThresholdError(f"need T1 >= 1, got {thresholds.t1}")
    return thresholds


def fast_decide_thresholds(n: int, t: int) -> ThresholdConfig:
    """A variant with the smallest admissible ``T2``.

    The paper notes that a smaller ``t`` allows ``T2 < T1``, which improves
    running time (a decision needs a smaller majority) without affecting
    measure-one correctness and termination.  This returns the minimal
    ``T2 = T3 + t`` setting, used by the threshold ablation (E7).
    """
    t3 = n // 2 + 1
    t2 = t3 + t
    t1 = n - 2 * t
    config = ThresholdConfig(n=n, t=t, t1=t1, t2=t2, t3=t3)
    return config.require_valid()


def max_tolerable_t(n: int) -> int:
    """Largest ``t`` for which the default thresholds are valid.

    Theorem 4 requires ``t < n/6``; integrality can shave this slightly for
    small ``n``.  The function searches downward from ``ceil(n/6) - 1``.
    """
    candidate = (n - 1) // 6
    while candidate > 0:
        config = ThresholdConfig(n=n, t=candidate, t1=n - 2 * candidate,
                                 t2=n - 2 * candidate, t3=n - 3 * candidate)
        if config.valid:
            return candidate
        candidate -= 1
    return 0


def threshold_grid(n: int, t: int) -> List[ThresholdConfig]:
    """Enumerate candidate (T1, T2, T3) settings for the ablation experiment.

    Includes both valid configurations and selected invalid ones (violating
    exactly one constraint), so the ablation can show which constraint
    failures break correctness or termination.
    """
    configs = []
    base = ThresholdConfig(n=n, t=t, t1=n - 2 * t, t2=n - 2 * t, t3=n - 3 * t)
    configs.append(base)
    if n // 2 + 1 + t <= n - 2 * t:
        configs.append(ThresholdConfig(n=n, t=t, t1=n - 2 * t,
                                       t2=n // 2 + 1 + t, t3=n // 2 + 1))
    # Violates 2*T3 > n: the termination argument (no two processors can
    # deterministically adopt conflicting values) breaks.
    configs.append(ThresholdConfig(n=n, t=t, t1=n - 2 * t, t2=n - 2 * t,
                                   t3=n // 2 - t if n // 2 - t > 0 else 1))
    # Violates T2 >= T3 + t: a reset-straddling decision can be missed by
    # other processors, breaking the agreement argument.
    configs.append(ThresholdConfig(n=n, t=t, t1=n - 2 * t,
                                   t2=max(n - 3 * t, 1), t3=n - 3 * t))
    return configs


__all__ = [
    "ThresholdConfig",
    "ThresholdError",
    "default_thresholds",
    "fast_decide_thresholds",
    "max_tolerable_t",
    "resolve_thresholds",
    "threshold_grid",
]
