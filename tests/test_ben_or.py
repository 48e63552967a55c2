"""Unit tests for the Ben-Or baseline protocol."""

import random

import pytest

from repro.adversaries.benign import BenignAdversary
from repro.adversaries.crash import StaticCrashAdversary
from repro.protocols.ben_or import PROPOSE, REPORT, BenOrAgreement
from repro.simulation.message import Message
from repro.simulation.windows import run_execution


def make_protocol(pid=0, n=7, t=3, input_bit=1, seed=5):
    return BenOrAgreement(pid=pid, n=n, t=t, input_bit=input_bit,
                          rng=random.Random(seed))


def report(sender, receiver, round_number, value):
    return Message(sender=sender, receiver=receiver,
                   payload=(REPORT, round_number, value))


def propose(sender, receiver, round_number, value):
    return Message(sender=sender, receiver=receiver,
                   payload=(PROPOSE, round_number, value))


class TestStructure:
    def test_resilience_requirement(self):
        with pytest.raises(ValueError):
            BenOrAgreement(pid=0, n=6, t=3, input_bit=0)

    def test_is_forgetful_and_fully_communicative(self):
        assert BenOrAgreement.forgetful
        assert BenOrAgreement.fully_communicative

    def test_first_message_is_report_of_input(self):
        protocol = make_protocol(input_bit=1)
        assert protocol.send_step() == [(REPORT, 1, 1)]


class TestReportPhase:
    def test_majority_report_produces_proposal(self):
        protocol = make_protocol(input_bit=0)
        for sender in range(3):
            protocol.receive_step(report(sender, 0, 1, 1))
        assert protocol.phase == REPORT  # only 3 < n - t = 4 received so far
        # The fourth report completes the quorum; 4 > n/2 = 3.5, so the
        # majority value becomes the proposal.
        protocol.receive_step(report(3, 0, 1, 1))
        assert protocol.phase == PROPOSE
        assert protocol.proposal == 1

    def test_split_reports_produce_bottom_proposal(self):
        protocol = make_protocol(input_bit=0)
        for sender in range(2):
            protocol.receive_step(report(sender, 0, 1, 1))
        protocol.receive_step(report(2, 0, 1, 0))
        assert protocol.phase == REPORT
        # Quorum reached with an even split: 2 vs 2, no value exceeds n/2,
        # so the proposal stays bottom (None).
        protocol.receive_step(report(3, 0, 1, 0))
        assert protocol.phase == PROPOSE
        assert protocol.proposal is None

    def test_majority_threshold_hook(self):
        protocol = make_protocol()
        assert protocol.majority_threshold() == 4  # report phase
        protocol.phase = PROPOSE
        assert protocol.majority_threshold() == 1


class TestProposalPhase:
    def _enter_propose_phase(self, protocol, value):
        for sender in range(4):
            protocol.receive_step(report(sender, 0, 1, value))
        # Complete the report quorum with the same value.
        for sender in range(4, 5):
            protocol.receive_step(report(sender, 0, 1, value))
        assert protocol.phase == PROPOSE

    def test_decides_with_t_plus_one_matching_proposals(self):
        protocol = make_protocol(input_bit=0)
        self._enter_propose_phase(protocol, 1)
        for sender in range(4):
            protocol.receive_step(propose(sender, 0, 1, 1))
        protocol.receive_step(propose(4, 0, 1, None))
        assert protocol.decided
        assert protocol.output == 1
        assert protocol.round == 2

    def test_adopts_single_proposal_without_deciding(self):
        protocol = make_protocol(input_bit=0)
        self._enter_propose_phase(protocol, 1)
        protocol.receive_step(propose(0, 0, 1, 1))
        for sender in range(1, 5):
            protocol.receive_step(propose(sender, 0, 1, None))
        assert not protocol.decided
        assert protocol.estimate == 1
        assert protocol.round == 2

    def test_all_bottom_proposals_flip_a_coin(self):
        protocol = make_protocol(input_bit=0)
        self._enter_propose_phase(protocol, 1)
        for sender in range(5):
            protocol.receive_step(propose(sender, 0, 1, None))
        assert not protocol.decided
        assert protocol.coin_flips == 1
        assert protocol.round == 2

    def test_malformed_messages_ignored(self):
        protocol = make_protocol()
        protocol.receive_step(Message(sender=1, receiver=0, payload=42))
        protocol.receive_step(Message(sender=1, receiver=0,
                                      payload=(REPORT, 1, 5)))
        assert protocol.phase == REPORT
        assert protocol._received == {}


class TestEndToEnd:
    def test_unanimous_inputs_decide_quickly(self):
        for value in (0, 1):
            result = run_execution(BenOrAgreement, n=7, t=3,
                                   inputs=[value] * 7,
                                   adversary=BenignAdversary(),
                                   max_windows=20, seed=1)
            assert result.all_live_decided
            assert result.decision_values == {value}

    def test_split_inputs_terminate_under_benign_schedule(self):
        result = run_execution(BenOrAgreement, n=9, t=4,
                               inputs=[pid % 2 for pid in range(9)],
                               adversary=BenignAdversary(),
                               max_windows=3000, seed=11)
        assert result.all_live_decided
        assert result.agreement_ok and result.validity_ok

    def test_tolerates_t_crashes_at_start(self):
        n, t = 9, 4
        result = run_execution(
            BenOrAgreement, n=n, t=t, inputs=[1] * n,
            adversary=StaticCrashAdversary(
                crash_schedule={0: tuple(range(t))}),
            max_windows=3000, seed=2)
        assert result.agreement_ok and result.validity_ok
        assert result.all_live_decided
        assert len(result.crashed) == t
