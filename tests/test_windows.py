"""Unit tests for acceptable windows and window scheduling on the engine."""

import pytest

from repro.adversaries.benign import BenignAdversary, SilencingAdversary
from repro.core.reset_tolerant import ResetTolerantAgreement
from repro.protocols.base import ProtocolFactory
from repro.simulation.errors import AdversaryBudgetError, InvalidWindowError
from repro.simulation.engine import Engine
from repro.simulation.windows import (WindowAdversary, WindowSpec,
                                      run_execution)


def make_engine(n=13, t=2, inputs=None, seed=11, record=False):
    factory = ProtocolFactory(ResetTolerantAgreement, n=n, t=t)
    if inputs is None:
        inputs = [pid % 2 for pid in range(n)]
    return Engine(factory, inputs, seed=seed, record_configurations=record)


class TestWindowSpec:
    def test_full_delivery(self):
        spec = WindowSpec.full_delivery(5)
        assert len(spec.senders_for) == 5
        assert all(senders == frozenset(range(5))
                   for senders in spec.senders_for)
        assert spec.resets == frozenset()
        spec.validate(5, 1)

    def test_uniform(self):
        senders = frozenset({0, 1, 2})
        spec = WindowSpec.uniform(4, senders, resets=frozenset({3}))
        assert all(s == senders for s in spec.senders_for)
        spec.validate(4, 1)

    def test_validate_rejects_small_sender_set(self):
        spec = WindowSpec.uniform(5, frozenset({0, 1}))
        with pytest.raises(InvalidWindowError):
            spec.validate(5, 1)

    def test_validate_rejects_too_many_resets(self):
        spec = WindowSpec.uniform(5, frozenset(range(5)),
                                  resets=frozenset({0, 1}))
        with pytest.raises(InvalidWindowError):
            spec.validate(5, 1)

    def test_validate_rejects_wrong_length(self):
        spec = WindowSpec(senders_for=(frozenset(range(5)),) * 4)
        with pytest.raises(InvalidWindowError):
            spec.validate(5, 1)

    def test_validate_rejects_out_of_range_identities(self):
        spec = WindowSpec.uniform(5, frozenset({0, 1, 2, 3, 9}))
        with pytest.raises(InvalidWindowError):
            spec.validate(5, 1)
        spec = WindowSpec.uniform(5, frozenset(range(5)),
                                  resets=frozenset({9}))
        with pytest.raises(InvalidWindowError):
            spec.validate(5, 1)


class TestWindowScheduling:
    def test_run_window_counts_windows_and_messages(self):
        engine = make_engine()
        engine.run_window(WindowSpec.full_delivery(engine.n))
        assert engine.window_index == 1
        assert engine.network.sent_count == engine.n * engine.n

    def test_unanimous_inputs_decide_in_first_window(self):
        engine = make_engine(inputs=[1] * 13)
        engine.run_window(WindowSpec.full_delivery(engine.n))
        assert engine.any_decided()
        assert engine.all_live_decided()
        assert set(engine.outputs()) == {1}

    def test_reset_applies_and_counts(self):
        engine = make_engine()
        spec = WindowSpec.uniform(engine.n, frozenset(range(engine.n)),
                                  resets=frozenset({0, 1}))
        engine.run_window(spec)
        assert engine.total_resets == 2
        assert engine.processors[0].protocol.reset_count == 1
        assert engine.processors[2].protocol.reset_count == 0

    def test_record_configurations(self):
        engine = make_engine(record=True)
        assert len(engine.configurations) == 1  # initial snapshot
        engine.run_window(WindowSpec.full_delivery(engine.n))
        assert len(engine.configurations) == 2

    def test_configuration_reflects_inputs(self):
        engine = make_engine(inputs=[0] * 13)
        config = engine.configuration()
        assert config.inputs() == tuple([0] * 13)

    def test_clone_is_independent(self):
        engine = make_engine()
        clone = engine.clone()
        clone.run_window(WindowSpec.full_delivery(engine.n))
        assert engine.window_index == 0
        assert clone.window_index == 1

    def test_reseed_changes_randomness(self):
        engine = make_engine()
        clone_a = engine.clone()
        clone_b = engine.clone()
        clone_a.reseed(1)
        clone_b.reseed(2)
        draws_a = [p.protocol.rng.random() for p in clone_a.processors]
        draws_b = [p.protocol.rng.random() for p in clone_b.processors]
        assert draws_a != draws_b


class TestRun:
    def test_run_with_benign_adversary_terminates_and_agrees(self):
        engine = make_engine()
        result = engine.run(BenignAdversary(), max_windows=50,
                            stop_when="all")
        assert result.all_live_decided
        assert result.agreement_ok
        assert result.validity_ok

    def test_run_stop_when_first(self):
        engine = make_engine()
        result = engine.run(BenignAdversary(), max_windows=50,
                            stop_when="first")
        assert result.decided
        assert result.first_decision_window is not None

    def test_run_rejects_bad_stop_condition(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.run(BenignAdversary(), max_windows=5, stop_when="never")

    def test_run_needs_exactly_one_cap(self):
        engine = make_engine()
        with pytest.raises(ValueError, match="exactly one"):
            engine.run(BenignAdversary())
        with pytest.raises(ValueError, match="exactly one"):
            engine.run(BenignAdversary(), max_windows=5, max_steps=5)

    def test_window_crashes_share_the_crash_budget_of_t(self):
        engine = make_engine(t=2)
        everyone = frozenset(range(engine.n))
        engine.run_window(WindowSpec.uniform(
            engine.n, everyone, crashes=frozenset({0, 1})))
        assert engine.crashed_processors() == [0, 1]
        with pytest.raises(AdversaryBudgetError):
            engine.run_window(WindowSpec.uniform(
                engine.n, everyone, crashes=frozenset({2})))

    def test_run_respects_max_windows(self):
        class StallingAdversary(WindowAdversary):
            def next_window(self, engine):
                # Keep silencing different processors; the protocol still
                # progresses but we only check the cap here.
                return WindowSpec.full_delivery(engine.n)

        engine = make_engine(inputs=[0] * 13)
        result = engine.run(StallingAdversary(), max_windows=3,
                            stop_when="all")
        assert result.windows_elapsed <= 3

    def test_run_execution_helper(self):
        result = run_execution(ResetTolerantAgreement, n=13, t=2,
                               inputs=[1] * 13,
                               adversary=BenignAdversary(), max_windows=20,
                               seed=5)
        assert result.correct
        assert result.all_live_decided

    def test_silencing_adversary_still_terminates(self):
        result = run_execution(ResetTolerantAgreement, n=13, t=2,
                               inputs=[pid % 2 for pid in range(13)],
                               adversary=SilencingAdversary(),
                               max_windows=4000, seed=5)
        assert result.all_live_decided
        assert result.agreement_ok


class TestResultSummaries:
    def test_result_summary_fields(self):
        engine = make_engine(inputs=[1] * 13)
        result = engine.run(BenignAdversary(), max_windows=10)
        summary = result.summary()
        assert summary["n"] == 13
        assert summary["decided"] is True
        assert summary["agreement_ok"] is True
        assert summary["first_decision_window"] == 1

    def test_running_time_windows(self):
        engine = make_engine(inputs=[1] * 13)
        result = engine.run(BenignAdversary(), max_windows=10)
        assert result.running_time_windows() == 1
