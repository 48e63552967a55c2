"""Statistics helpers for the experiment harness.

The running-time experiments (E2, E4) produce samples of "windows until
first decision" across many trials and several values of ``n``; the claims
being reproduced are about the *shape* of the growth (exponential in ``n``
for a fixed fault fraction), so the harness needs exponential fits with
confidence information, plus basic summaries of trial batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.tables import format_table


@dataclass(frozen=True)
class TrialSummary:
    """Summary statistics of one batch of trials.

    Attributes:
        count: number of trials.
        mean: sample mean.
        median: sample median.
        std: sample standard deviation (ddof=1; 0.0 for a single trial).
        minimum: smallest observation.
        maximum: largest observation.
        confidence: level of the ``ci_low``/``ci_high`` t-interval for the
            mean, which is computed (with scipy) only when read.
    """

    count: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float
    confidence: float

    @property
    def ci_low(self) -> float:
        return self._t_interval()[0]

    @property
    def ci_high(self) -> float:
        return self._t_interval()[1]

    def _t_interval(self) -> Tuple[float, float]:
        if self.count < 2 or self.std <= 0:
            return self.mean, self.mean
        from scipy import stats
        low, high = stats.t.interval(self.confidence, self.count - 1,
                                     loc=self.mean,
                                     scale=self.std / math.sqrt(self.count))
        return float(low), float(high)


def summarize_trials(values: Sequence[float],
                     confidence: float = 0.95) -> TrialSummary:
    """Summarise a batch of trial measurements."""
    if not values:
        raise ValueError("cannot summarise an empty batch")
    data = np.asarray(values, dtype=float)
    mean = float(np.mean(data))
    median = float(np.median(data))
    std = float(np.std(data, ddof=1)) if len(data) > 1 else 0.0
    return TrialSummary(count=len(data), mean=mean, median=median, std=std,
                        minimum=float(np.min(data)),
                        maximum=float(np.max(data)), confidence=confidence)


@dataclass(frozen=True)
class ExponentialFit:
    """Least-squares fit of ``y = a * exp(b * x)`` via log-linear regression.

    Attributes:
        a: the fitted prefactor.
        b: the fitted growth rate (per unit of ``x``).
        r_squared: coefficient of determination of the log-linear fit.
        doubling_x: increase in ``x`` that doubles ``y`` (``ln 2 / b``),
            ``inf`` when the fit is flat or decreasing.
    """

    a: float
    b: float
    r_squared: float

    @property
    def doubling_x(self) -> float:
        if self.b <= 0:
            return math.inf
        return math.log(2.0) / self.b

    def predict(self, x: float) -> float:
        """The fitted value at ``x``."""
        return self.a * math.exp(self.b * x)


def fit_exponential(xs: Sequence[float],
                    ys: Sequence[float]) -> ExponentialFit:
    """Fit ``y = a * exp(b * x)`` by linear regression on ``log y``.

    The regression is ``scipy.stats.linregress``'s own closed form, so
    slope, intercept and r are bit-identical to it.

    Raises:
        ValueError: when fewer than two positive observations are supplied,
            or when they all share one ``x``.
    """
    pairs = [(x, y) for x, y in zip(xs, ys) if y > 0]
    if len(pairs) < 2:
        raise ValueError("need at least two positive points for a fit")
    x_arr = np.asarray([x for x, _ in pairs], dtype=float)
    log_y = np.log(np.asarray([y for _, y in pairs], dtype=float))
    if np.amax(x_arr) == np.amin(x_arr):
        raise ValueError("cannot fit a slope when all x values are equal")
    ssxm, ssxym, _, ssym = np.cov(x_arr, log_y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r_value = math.nan if ssxym == 0 else 0.0
    else:
        r_value = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    intercept = np.mean(log_y) - slope * np.mean(x_arr)
    return ExponentialFit(a=float(math.exp(intercept)), b=float(slope),
                          r_squared=float(r_value ** 2))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("cannot take the geometric mean of nothing")
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean requires positive values")
    return float(math.exp(sum(math.log(value) for value in values)
                          / len(values)))


def empirical_probability(successes: int, trials: int) -> Tuple[float, float, float]:
    """Point estimate and Wilson 95% interval for a success probability."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p_hat = successes / trials
    z = 1.959963984540054
    denominator = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denominator
    margin = (z * math.sqrt(p_hat * (1 - p_hat) / trials
                            + z * z / (4 * trials * trials))) / denominator
    return p_hat, max(0.0, centre - margin), min(1.0, centre + margin)


__all__ = [
    "TrialSummary",
    "summarize_trials",
    "ExponentialFit",
    "fit_exponential",
    "geometric_mean",
    "empirical_probability",
    "format_table",
]
