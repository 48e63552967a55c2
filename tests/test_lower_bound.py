"""Tests for the executable Theorem 5 lower-bound machinery."""

import pytest

from repro.adversaries.interpolation import interpolate_windows
from repro.core.lower_bound import (best_hybrid, decision_set_separation,
                                    estimate_decision_probability,
                                    find_balanced_inputs,
                                    hybrid_window_sweep, lower_bound_report,
                                    sample_decision_configurations)
from repro.core.reset_tolerant import ResetTolerantAgreement
from repro.protocols.base import ProtocolFactory
from repro.simulation.engine import Engine
from repro.simulation.windows import WindowSpec


N, T = 13, 2


def make_engine(inputs, seed=1):
    factory = ProtocolFactory(ResetTolerantAgreement, n=N, t=T)
    return Engine(factory, inputs, seed=seed)


class TestDecisionSetSampling:
    def test_samples_contain_both_decision_values(self):
        zeros, ones = sample_decision_configurations(
            ResetTolerantAgreement, n=N, t=T, trials=8, seed=3)
        assert zeros and ones
        assert all(config.has_decision(0) for config in zeros)
        assert all(config.has_decision(1) for config in ones)

    def test_separation_exceeds_t(self):
        report = decision_set_separation(ResetTolerantAgreement, n=N, t=T,
                                         trials=8, seed=3)
        assert report.zero_samples > 0 and report.one_samples > 0
        assert report.min_distance is not None
        assert report.min_distance > T
        assert report.satisfied
        assert report.required == T + 1


class TestWindowOutcomeEstimation:
    def test_unanimous_inputs_decide_with_probability_one(self):
        engine = make_engine([1] * N)
        probability = estimate_decision_probability(
            engine, WindowSpec.full_delivery(N), value=1, samples=4, seed=2)
        assert probability == 1.0

    def test_unanimous_inputs_never_decide_the_other_value(self):
        engine = make_engine([1] * N)
        probability = estimate_decision_probability(
            engine, WindowSpec.full_delivery(N), value=0, samples=4,
            horizon=2, seed=2)
        assert probability == 0.0

    def test_any_value_decision_probability(self):
        engine = make_engine([0] * N)
        probability = estimate_decision_probability(
            engine, WindowSpec.full_delivery(N), value=None, samples=3,
            seed=2)
        assert probability == 1.0


class TestInterpolation:
    def test_interpolate_windows_mixes_coordinates(self):
        everyone = frozenset(range(N))
        spec_a = WindowSpec.uniform(N, everyone - frozenset({0, 1}),
                                    resets=frozenset({0, 1}))
        spec_b = WindowSpec.uniform(N, everyone - frozenset({11, 12}),
                                    resets=frozenset({11, 12}))
        hybrid = interpolate_windows(spec_a, spec_b, j=6, max_resets=T)
        assert hybrid.senders_for[0] == spec_a.senders_for[0]
        assert hybrid.senders_for[12] == spec_b.senders_for[12]
        assert len(hybrid.resets) <= T
        hybrid.validate(N, T)

    def test_interpolate_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            interpolate_windows(WindowSpec.full_delivery(4),
                                WindowSpec.full_delivery(5), 2)

    def test_hybrid_sweep_and_best_point(self):
        engine = make_engine([pid % 2 for pid in range(N)])
        everyone = frozenset(range(N))
        spec_a = WindowSpec.uniform(N, everyone - frozenset({0, 1}),
                                    resets=frozenset({0, 1}))
        spec_b = WindowSpec.uniform(N, everyone - frozenset({11, 12}),
                                    resets=frozenset({11, 12}))
        sweep = hybrid_window_sweep(engine, spec_a, spec_b, samples=3,
                                    horizon=1, seed=4, points=[0, 6, N])
        assert len(sweep) == 3
        best = best_hybrid(sweep)
        assert best.worst == min(point.worst for point in sweep)
        assert all(0.0 <= point.worst <= 1.0 for point in sweep)

    def test_best_hybrid_rejects_empty_sweep(self):
        with pytest.raises(ValueError):
            best_hybrid([])


class TestInputInterpolation:
    def test_balanced_inputs_are_not_unanimous(self):
        result = find_balanced_inputs(ResetTolerantAgreement, n=N, t=T,
                                      samples=3, horizon=2, seed=5)
        ones = sum(result.inputs)
        assert 0 < ones < N
        assert len(result.sweep) == N + 1
        assert result.zero_probability <= 1.0
        assert result.one_probability <= 1.0


class TestFullReport:
    def test_lower_bound_report_is_internally_consistent(self):
        report = lower_bound_report(ResetTolerantAgreement, n=N, t=T,
                                    separation_trials=6, samples=3, seed=7)
        assert report.n == N and report.t == T
        assert report.separation.satisfied
        assert 0.0 < report.tau < 1.0
        assert 0.0 <= report.hybrid_best.worst <= 1.0
        assert 0 < sum(report.balanced_inputs.inputs) < N
