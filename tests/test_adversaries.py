"""Unit tests for the adversary strategies."""

import hashlib

import pytest

from repro.adversaries.base import FaultBudget, random_subset, senders_excluding
from repro.adversaries.benign import (BenignAdversary,
                                      RandomSchedulerAdversary,
                                      SilencingAdversary)
from repro.adversaries.crash import (CrashAtDecisionAdversary,
                                     CrashSplitVoteAdversary,
                                     StaticCrashAdversary)
from repro.adversaries.polarizing import PolarizingAdversary
from repro.adversaries.split_vote import (AdaptiveResettingAdversary,
                                          SplitVoteAdversary)
from repro.core.reset_tolerant import ResetTolerantAgreement
from repro.protocols.base import ProtocolFactory
from repro.runner import STEP_ENGINE, TrialSpec, execute_trial
from repro.simulation.engine import Engine
import random


def make_engine(n=13, t=2, inputs=None, seed=3):
    factory = ProtocolFactory(ResetTolerantAgreement, n=n, t=t)
    if inputs is None:
        inputs = [pid % 2 for pid in range(n)]
    return Engine(factory, inputs, seed=seed)


class TestHelpers:
    def test_senders_excluding(self):
        senders = senders_excluding(5, {1, 3})
        assert senders == frozenset({0, 2, 4})

    def test_random_subset_size_and_membership(self):
        rng = random.Random(1)
        subset = random_subset(range(10), 4, rng)
        assert len(subset) == 4
        assert subset.issubset(set(range(10)))

    def test_random_subset_too_large_raises(self):
        with pytest.raises(ValueError):
            random_subset(range(3), 5, random.Random(1))

    def test_fault_budget(self):
        budget = FaultBudget(2)
        assert budget.fault(1)
        assert budget.fault(1)  # same victim does not consume extra budget
        assert budget.fault(2)
        assert not budget.fault(3)
        assert budget.victims == {1, 2}
        assert budget.remaining == 0


class TestBenignFamily:
    def test_benign_adversary_full_delivery(self):
        engine = make_engine()
        spec = BenignAdversary().next_window(engine)
        spec.validate(engine.n, engine.t)
        assert all(senders == frozenset(range(engine.n))
                   for senders in spec.senders_for)
        assert spec.resets == frozenset()

    def test_random_scheduler_produces_legal_windows(self):
        engine = make_engine()
        adversary = RandomSchedulerAdversary(seed=1, reset_probability=1.0)
        for _ in range(10):
            spec = adversary.next_window(engine)
            spec.validate(engine.n, engine.t)

    def test_random_scheduler_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            RandomSchedulerAdversary(reset_probability=1.5)

    def test_silencing_adversary_excludes_first_t_by_default(self):
        engine = make_engine()
        spec = SilencingAdversary().next_window(engine)
        assert spec.senders_for[0] == frozenset(range(2, engine.n))

    def test_silencing_adversary_rejects_oversized_set(self):
        engine = make_engine()
        adversary = SilencingAdversary(silenced=frozenset(range(5)))
        with pytest.raises(ValueError):
            adversary.next_window(engine)


class TestSplitVote:
    def test_windows_are_legal_and_blocking(self):
        engine = make_engine()
        adversary = SplitVoteAdversary(seed=2)
        spec = adversary.next_window(engine)
        spec.validate(engine.n, engine.t)
        assert adversary.blocked_windows == 1

    def test_blocking_prevents_first_window_decision_on_split_inputs(self):
        engine = make_engine()
        adversary = SplitVoteAdversary(seed=2)
        engine.run_window(adversary.next_window(engine))
        assert not engine.any_decided()

    def test_loses_control_on_lopsided_estimates(self):
        # 12 ones and a single zero: hiding t=2 voters cannot mask the skew.
        engine = make_engine(inputs=[1] * 12 + [0])
        adversary = SplitVoteAdversary(seed=2)
        spec = adversary.next_window(engine)
        assert adversary.lost_control_windows == 1
        assert spec.senders_for[0] == frozenset(range(engine.n))

    def test_explicit_block_threshold_used(self):
        engine = make_engine()
        adversary = SplitVoteAdversary(block_threshold=100, seed=2)
        adversary.next_window(engine)
        assert adversary.blocked_windows == 1  # trivially below 100

    def test_adaptive_resetting_adds_resets_within_budget(self):
        engine = make_engine()
        adversary = AdaptiveResettingAdversary(seed=2)
        spec = adversary.next_window(engine)
        spec.validate(engine.n, engine.t)
        assert 0 < len(spec.resets) <= engine.t

    def test_adaptive_resetting_reset_fraction_zero(self):
        engine = make_engine()
        adversary = AdaptiveResettingAdversary(seed=2, reset_fraction=0.0)
        spec = adversary.next_window(engine)
        assert spec.resets == frozenset()

    def test_adaptive_resetting_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            AdaptiveResettingAdversary(reset_fraction=2.0)


class TestCrashFamily:
    def test_static_crash_schedule_applied_once(self):
        engine = make_engine()
        adversary = StaticCrashAdversary(crash_schedule={0: (0, 1)})
        adversary.bind(engine)
        spec = adversary.next_window(engine)
        assert spec.crashes == frozenset({0, 1})
        engine.run_window(spec)
        follow_up = adversary.next_window(engine)
        assert follow_up.crashes == frozenset()

    def test_static_crash_respects_budget(self):
        engine = make_engine()  # t = 2
        adversary = StaticCrashAdversary(crash_schedule={0: (0, 1, 2, 3)})
        adversary.bind(engine)
        spec = adversary.next_window(engine)
        assert len(spec.crashes) <= engine.t

    def test_crash_at_decision_crashes_deciders(self):
        engine = make_engine(inputs=[1] * 13)
        adversary = CrashAtDecisionAdversary()
        adversary.bind(engine)
        engine.run_window(adversary.next_window(engine))
        assert engine.any_decided()
        spec = adversary.next_window(engine)
        assert len(spec.crashes) == engine.t

    def test_crash_split_vote_never_resets(self):
        engine = make_engine()
        adversary = CrashSplitVoteAdversary(seed=1)
        for _ in range(5):
            spec = adversary.next_window(engine)
            assert spec.resets == frozenset()
            engine.run_window(spec)


class TestPolarizing:
    def test_windows_are_legal(self):
        engine = make_engine()
        spec = PolarizingAdversary(seed=1).next_window(engine)
        spec.validate(engine.n, engine.t)

    def test_two_camps_see_different_sender_sets_on_split_inputs(self):
        engine = make_engine()
        spec = PolarizingAdversary(seed=1).next_window(engine)
        assert spec.senders_for[0] != spec.senders_for[engine.n - 1]


class TestStepFuzzerCrashes:
    """The crashed-receiver filter of ``StepFuzzer`` only runs once a
    processor has crashed; this trial crashes two and is pinned to the
    schedule and result the fuzzer produced before that shortcut."""

    def test_crashing_schedule_is_pinned(self):
        spec = TrialSpec(
            protocol="bracha", adversary="step-fuzzer", n=7, t=2,
            inputs=tuple(pid % 2 for pid in range(7)), seed=11,
            adversary_kwargs={"seed": 5, "crash_probability": 0.01,
                              "corrupted": (0,), "strategy": "equivocate"},
            engine=STEP_ENGINE, max_steps=3000, stop_when="all",
            record_trace=True)
        result = execute_trial(spec)
        assert [event.pid for event in result.trace.events
                if event.kind == "crash"] == [3, 1]
        schedule = [(event.kind, event.pid, event.value, event.sequence,
                     event.sender, event.sequences, event.corrupted,
                     event.lost) for event in result.trace.events]
        summary = (result.outputs, result.crashed, result.steps_elapsed,
                   result.first_decision_step, result.messages_sent,
                   result.messages_delivered, result.total_coin_flips)
        assert hashlib.sha256(repr(schedule).encode()).hexdigest()[:16] \
            == "00a3c3fd1d3cf4d8"
        assert hashlib.sha256(repr(summary).encode()).hexdigest()[:16] \
            == "47025f6fad62f224"
