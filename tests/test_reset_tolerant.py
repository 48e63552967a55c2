"""Unit tests for the paper's reset-tolerant agreement algorithm."""

import random

import pytest

from repro.adversaries.benign import BenignAdversary
from repro.adversaries.split_vote import AdaptiveResettingAdversary
from repro.core.reset_tolerant import VOTE, ResetTolerantAgreement
from repro.core.thresholds import ThresholdConfig, default_thresholds
from repro.protocols.base import ProtocolFactory
from repro.simulation.message import Message
from repro.simulation.engine import Engine
from repro.simulation.windows import WindowSpec, run_execution


def make_protocol(pid=0, n=13, t=2, input_bit=1, seed=3, thresholds=None):
    return ResetTolerantAgreement(pid=pid, n=n, t=t, input_bit=input_bit,
                                  rng=random.Random(seed),
                                  thresholds=thresholds)


def vote(sender, receiver, round_number, value):
    return Message(sender=sender, receiver=receiver,
                   payload=(VOTE, round_number, value))


class TestStructuralProperties:
    def test_is_forgetful_and_fully_communicative(self):
        assert ResetTolerantAgreement.forgetful
        assert ResetTolerantAgreement.fully_communicative

    def test_default_thresholds_are_theorem_4(self):
        protocol = make_protocol()
        expected = default_thresholds(13, 2)
        assert protocol.thresholds == expected

    def test_invalid_thresholds_rejected_by_default(self):
        bad = ThresholdConfig(n=13, t=2, t1=9, t2=9, t3=5)
        with pytest.raises(Exception):
            make_protocol(thresholds=bad)

    def test_invalid_thresholds_allowed_when_requested(self):
        bad = ThresholdConfig(n=13, t=2, t1=9, t2=9, t3=5)
        protocol = ResetTolerantAgreement(pid=0, n=13, t=2, input_bit=0,
                                          thresholds=bad,
                                          validate_thresholds=False)
        assert protocol.thresholds is bad


class TestRoundLogic:
    def test_initial_message_carries_round_and_input(self):
        protocol = make_protocol(input_bit=1)
        assert protocol.send_step() == [(VOTE, 1, 1)]

    def test_decides_on_t2_matching_votes(self):
        protocol = make_protocol(input_bit=1)
        # T1 = T2 = 9 for n=13, t=2.
        for sender in range(9):
            protocol.receive_step(vote(sender, 0, 1, 1))
        assert protocol.decided
        assert protocol.output == 1
        assert protocol.current_round() == 2
        assert protocol.current_estimate() == 1

    def test_adopts_on_t3_without_deciding(self):
        protocol = make_protocol(input_bit=0)
        # 7 = T3 votes for 1, 2 votes for 0 -> adopt 1, no decision.
        for sender in range(7):
            protocol.receive_step(vote(sender, 0, 1, 1))
        for sender in range(7, 9):
            protocol.receive_step(vote(sender, 0, 1, 0))
        assert not protocol.decided
        assert protocol.current_estimate() == 1
        assert protocol.current_round() == 2

    def test_coin_flip_when_no_threshold_met(self):
        protocol = make_protocol(input_bit=0)
        # 5 votes for 1 and 4 for 0: below T3 = 7 for both values.
        for sender in range(5):
            protocol.receive_step(vote(sender, 0, 1, 1))
        for sender in range(5, 9):
            protocol.receive_step(vote(sender, 0, 1, 0))
        assert not protocol.decided
        assert protocol.coin_flips == 1
        assert protocol.current_estimate() in (0, 1)

    def test_stale_round_votes_ignored(self):
        protocol = make_protocol(input_bit=1)
        for sender in range(9):
            protocol.receive_step(vote(sender, 0, 1, 1))
        assert protocol.current_round() == 2
        # Round-1 votes arriving late must not affect round 2 counting.
        protocol.receive_step(vote(10, 0, 1, 0))
        assert protocol.current_round() == 2

    def test_future_round_votes_buffered(self):
        protocol = make_protocol(input_bit=1)
        for sender in range(9):
            protocol.receive_step(vote(sender, 0, 2, 1))
        # Still in round 1: the round-2 votes are buffered, not processed.
        assert protocol.current_round() == 1
        for sender in range(9):
            protocol.receive_step(vote(sender, 0, 1, 1))
        # Finishing round 1 immediately consumes the buffered round-2 quota.
        assert protocol.current_round() == 3

    def test_malformed_messages_ignored(self):
        protocol = make_protocol()
        protocol.receive_step(Message(sender=1, receiver=0, payload="junk"))
        protocol.receive_step(Message(sender=1, receiver=0,
                                      payload=(VOTE, "x", 1)))
        protocol.receive_step(Message(sender=1, receiver=0,
                                      payload=(VOTE, 1, 7)))
        assert protocol.current_round() == 1
        assert protocol.volatile_state()[3] == ()


class TestResetHandling:
    def test_reset_clears_round_and_estimate(self):
        protocol = make_protocol(input_bit=1)
        protocol.send_step()
        protocol.reset()
        assert protocol.current_round() is None
        assert protocol.current_estimate() is None
        assert protocol.reset_count == 1

    def test_reset_processor_refrains_from_sending(self):
        protocol = make_protocol(input_bit=1)
        protocol.reset()
        assert protocol.send_step() == []

    def test_reset_processor_resynchronises_from_t1_common_round_votes(self):
        protocol = make_protocol(input_bit=1)
        protocol.reset()
        for sender in range(9):
            protocol.receive_step(vote(sender, 0, 5, 1))
        assert protocol.current_round() == 6
        assert protocol.current_estimate() == 1
        # After resynchronising it resumes sending.
        assert protocol.send_step() == [(VOTE, 6, 1)]

    def test_reset_preserves_decision(self):
        protocol = make_protocol(input_bit=1)
        for sender in range(9):
            protocol.receive_step(vote(sender, 0, 1, 1))
        assert protocol.decided
        protocol.reset()
        assert protocol.output == 1


class TestEndToEnd:
    def test_unanimous_inputs_decide_the_common_value(self):
        for value in (0, 1):
            result = run_execution(ResetTolerantAgreement, n=13, t=2,
                                   inputs=[value] * 13,
                                   adversary=BenignAdversary(),
                                   max_windows=10, seed=1)
            assert result.all_live_decided
            assert result.decision_values == {value}

    def test_correct_under_adaptive_resetting_adversary(self):
        result = run_execution(ResetTolerantAgreement, n=13, t=2,
                               inputs=[pid % 2 for pid in range(13)],
                               adversary=AdaptiveResettingAdversary(seed=4),
                               max_windows=20000, seed=9, stop_when="all")
        assert result.agreement_ok
        assert result.validity_ok
        assert result.all_live_decided

    def test_volatile_state_round_trips_through_fingerprint(self):
        factory = ProtocolFactory(ResetTolerantAgreement, n=13, t=2)
        engine = Engine(factory, [1] * 13, seed=1)
        before = engine.configuration()
        engine.run_window(WindowSpec.full_delivery(13))
        after = engine.configuration()
        assert before.hamming_distance(after) == 13
