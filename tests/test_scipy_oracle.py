"""scipy as the oracle for the scipy-free statistics.

``binomial_tail_at_least``, ``fit_exponential`` and ``summarize_trials``
no longer call scipy on their hot paths; these tests hold each of them to
the scipy function it replaced.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from repro.analysis.statistics import fit_exponential, summarize_trials
from repro.core.analysis import binomial_tail_at_least
from repro.core.thresholds import ThresholdConfig


def _default_threshold_pairs(n):
    """Every ``(n, k)`` that ``split_vote_analysis`` asks of the tail."""
    for t in range(1, n):
        config = ThresholdConfig(n=n, t=t, t1=n - 2 * t, t2=n - 2 * t,
                                 t3=n - 3 * t)
        if config.valid:
            yield n, config.t3 + (n - config.t1)


class TestBinomialTail:
    @pytest.mark.parametrize("n", [*range(1, 30), 32, 64])
    def test_bit_identical_to_scipy_at_default_thresholds(self, n):
        for n, k in _default_threshold_pairs(n):
            assert binomial_tail_at_least(n, k) \
                == float(stats.binom.sf(k - 1, n, 0.5)), (n, k)

    def test_default_threshold_pairs_exist(self):
        assert any(_default_threshold_pairs(13))
        assert any(_default_threshold_pairs(64))

    def test_close_to_scipy_for_every_k(self):
        # scipy's tail is not correctly rounded: deep in the tail at
        # n ~ 300 it is off by up to a few hundred ulp (about 3e-14
        # relative), so agreement is held to a relative bound.
        for n in range(1, 300):
            oracle = stats.binom.sf(np.arange(0, n + 2) - 1, n, 0.5)
            for k in range(0, n + 2):
                assert math.isclose(binomial_tail_at_least(n, k),
                                    oracle[k], rel_tol=1e-13), (n, k)

    @pytest.mark.parametrize("n", [1, 2, 15, 39, 64, 128, 299])
    def test_correctly_rounded(self, n):
        upper = 0  # sum of comb(n, i) for i >= k
        for k in range(n + 1, -1, -1):
            upper += math.comb(n, k) if k <= n else 0
            exact = Fraction(upper, 1 << n)
            got = binomial_tail_at_least(n, k)
            error = abs(Fraction(got) - exact)
            for neighbour in (math.nextafter(got, -math.inf),
                              math.nextafter(got, math.inf)):
                assert error <= abs(Fraction(neighbour) - exact), (n, k)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
    def test_biased_coin_matches_scipy(self, p):
        for n in range(1, 40):
            for k in range(1, n + 1):
                assert binomial_tail_at_least(n, k, p) == pytest.approx(
                    float(stats.binom.sf(k - 1, n, p)), rel=1e-12), (n, k)


def _linregress_fit(xs, ys):
    result = stats.linregress(np.asarray(xs, dtype=float),
                              np.log(np.asarray(ys, dtype=float)))
    return (float(math.exp(result.intercept)), float(result.slope),
            float(result.rvalue ** 2))


def _assert_same_fit(xs, ys):
    fit = fit_exponential(xs, ys)
    a, b, r_squared = _linregress_fit(xs, ys)
    assert fit.a == a and fit.b == b, (xs, ys)
    assert fit.r_squared == r_squared or (
        math.isnan(fit.r_squared) and math.isnan(r_squared)), (xs, ys)


class TestExponentialFit:
    def test_bit_identical_to_linregress_on_random_fits(self):
        rng = random.Random(20240518)
        for _ in range(1000):
            size = rng.randint(2, 12)
            xs = rng.sample(range(4, 200), size)
            rate = rng.uniform(-0.5, 0.5)
            ys = [rng.uniform(0.1, 10.0) * math.exp(rate * x) for x in xs]
            _assert_same_fit(xs, ys)

    def test_two_points(self):
        _assert_same_fit([3, 8], [2.0, 50.0])
        _assert_same_fit([8, 3], [2.0, 50.0])

    def test_flat_y(self):
        _assert_same_fit([1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0])
        assert math.isnan(fit_exponential([1, 2], [3.0, 3.0]).r_squared)

    def test_negative_slope(self):
        _assert_same_fit([10, 20, 30, 40], [900.0, 80.0, 11.0, 0.5])
        assert fit_exponential([10, 20, 30], [9.0, 3.0, 1.0]).b < 0

    def test_exact_exponential(self):
        xs = [12, 16, 20, 24]
        _assert_same_fit(xs, [2.0 * math.exp(0.3 * x) for x in xs])

    def test_equal_x_rejected_like_linregress(self):
        with pytest.raises(ValueError):
            stats.linregress([2.0, 2.0], [1.0, 3.0])
        with pytest.raises(ValueError):
            fit_exponential([2, 2], [1.0, 3.0])


class TestConfidenceInterval:
    def test_equals_t_interval(self):
        rng = random.Random(7)
        for _ in range(300):
            values = [rng.expovariate(0.1)
                      for _ in range(rng.randint(2, 40))]
            confidence = rng.choice([0.9, 0.95, 0.99])
            summary = summarize_trials(values, confidence=confidence)
            data = np.asarray(values, dtype=float)
            low, high = stats.t.interval(
                confidence, len(data) - 1, loc=np.mean(data),
                scale=np.std(data, ddof=1) / math.sqrt(len(data)))
            assert (summary.ci_low, summary.ci_high) \
                == (float(low), float(high))

    def test_degenerate_batches_collapse_to_the_mean(self):
        assert summarize_trials([4.0]).ci_low == 4.0
        summary = summarize_trials([2.0, 2.0, 2.0])
        assert summary.ci_low == summary.ci_high == 2.0
