"""Unit and integration tests for Bracha's agreement protocol."""

import pytest

from repro.adversaries.byzantine import (ByzantineAdversary,
                                         EquivocateStrategy,
                                         FlipValueStrategy, SilentStrategy)
from repro.protocols.base import ProtocolFactory
from repro.protocols.bracha import DECIDED_MARKER, BrachaAgreement
from repro.simulation.engine import Engine


def run_bracha(n, t, inputs, strategy, corrupted=None, seed=3,
               max_steps=400000):
    factory = ProtocolFactory(BrachaAgreement, n=n, t=t)
    engine = Engine(factory, inputs, seed=seed)
    adversary = ByzantineAdversary(
        corrupted=corrupted if corrupted is not None else tuple(range(t)),
        strategy=strategy, seed=seed)
    return engine.run(adversary, max_steps=max_steps, stop_when="all")


def honest_view(result, corrupted):
    honest = [pid for pid in range(result.n) if pid not in corrupted]
    outputs = {result.outputs[pid] for pid in honest}
    values = {value for value in outputs if value is not None}
    decided = None not in outputs
    return values, decided


class TestConstruction:
    def test_resilience_requirement(self):
        with pytest.raises(ValueError):
            BrachaAgreement(pid=0, n=6, t=2, input_bit=0)

    def test_fully_communicative_flag(self):
        assert BrachaAgreement.fully_communicative
        assert not BrachaAgreement.forgetful

    def test_initial_send_starts_a_reliable_broadcast(self):
        protocol = BrachaAgreement(pid=0, n=7, t=2, input_bit=1)
        payloads = protocol.send_step()
        # One payload, broadcast to everyone: the INIT of the
        # (round 1, phase 1) reliable broadcast.
        assert len(payloads) == 1
        assert payloads[0][0] == "RBC_INIT"
        assert payloads[0][3] == 1


class TestValidation:
    def test_fabricated_decided_claim_is_filtered(self):
        protocol = BrachaAgreement(pid=0, n=7, t=2, input_bit=0)
        # The receiver has accepted seven phase-2 values, all zeros.
        protocol._accepted[(1, 2)] = {pid: 0 for pid in range(7)}
        # A claim that "more than n/2 said 1" is impossible and rejected.
        protocol._accepted[(1, 3)] = {6: (DECIDED_MARKER, 1)}
        valid = protocol._valid_accepted(1, 3)
        assert valid == {}

    def test_honest_decided_claim_passes(self):
        protocol = BrachaAgreement(pid=0, n=7, t=2, input_bit=0)
        protocol._accepted[(1, 2)] = {pid: 1 for pid in range(5)}
        protocol._accepted[(1, 3)] = {2: (DECIDED_MARKER, 1)}
        valid = protocol._valid_accepted(1, 3)
        assert valid == {2: (DECIDED_MARKER, 1)}

    def test_phase_one_values_always_admissible(self):
        protocol = BrachaAgreement(pid=0, n=7, t=2, input_bit=0)
        protocol._accepted[(2, 1)] = {3: 1, 4: 0}
        assert protocol._valid_accepted(2, 1) == {3: 1, 4: 0}


class TestAgainstByzantineStrategies:
    @pytest.mark.parametrize("strategy_cls", [SilentStrategy,
                                              FlipValueStrategy,
                                              EquivocateStrategy])
    def test_unanimous_inputs_decide_the_common_value(self, strategy_cls):
        n, t = 7, 2
        result = run_bracha(n, t, [0] * n, strategy_cls())
        values, decided = honest_view(result, set(range(t)))
        assert decided
        assert values == {0}

    @pytest.mark.parametrize("strategy_cls", [SilentStrategy,
                                              FlipValueStrategy,
                                              EquivocateStrategy])
    def test_split_inputs_agree_on_a_valid_value(self, strategy_cls):
        n, t = 7, 2
        inputs = [pid % 2 for pid in range(n)]
        result = run_bracha(n, t, inputs, strategy_cls())
        values, decided = honest_view(result, set(range(t)))
        assert decided
        assert len(values) == 1
        assert values.issubset({0, 1})

    def test_no_failures_is_fast_and_correct(self):
        n, t = 7, 2
        result = run_bracha(n, t, [1] * n, SilentStrategy(), corrupted=())
        assert result.all_live_decided
        assert result.decision_values == {1}
