"""Unit tests for the protocol base class and factory."""

import random

import pytest

from repro.protocols.base import Protocol, ProtocolFactory
from repro.simulation.errors import ProtocolViolationError
from repro.simulation.message import Message


class EchoProtocol(Protocol):
    """Minimal protocol used to exercise the base-class machinery."""

    forgetful = True
    fully_communicative = False

    def __init__(self, pid, n, t, input_bit, rng=None):
        super().__init__(pid, n, t, input_bit, rng)
        self.seen = []

    def _compose_payloads(self):
        return [("ECHO", self.input_bit)]

    def _handle_message(self, message):
        self.seen.append(message.payload)

    def _on_reset(self):
        self.seen = []

    def volatile_state(self):
        return tuple(self.seen)


class TestConstruction:
    def test_rejects_bad_pid(self):
        with pytest.raises(ValueError):
            EchoProtocol(pid=5, n=3, t=1, input_bit=0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            EchoProtocol(pid=0, n=3, t=1, input_bit=2)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            EchoProtocol(pid=0, n=3, t=3, input_bit=0)


class TestOutputBit:
    def test_initially_undecided(self):
        protocol = EchoProtocol(pid=0, n=3, t=1, input_bit=0)
        assert protocol.output is None
        assert not protocol.decided

    def test_decide_writes_once(self):
        protocol = EchoProtocol(pid=0, n=3, t=1, input_bit=0)
        protocol.decide(1)
        assert protocol.output == 1
        protocol.decide(1)  # idempotent
        assert protocol.output == 1

    def test_conflicting_decide_raises(self):
        protocol = EchoProtocol(pid=0, n=3, t=1, input_bit=0)
        protocol.decide(1)
        with pytest.raises(ProtocolViolationError):
            protocol.decide(0)

    def test_decide_non_bit_raises(self):
        protocol = EchoProtocol(pid=0, n=3, t=1, input_bit=0)
        with pytest.raises(ProtocolViolationError):
            protocol.decide(2)


class TestSendingSemantics:
    def test_send_step_is_complete_response(self):
        protocol = EchoProtocol(pid=0, n=3, t=1, input_bit=1)
        first = protocol.send_step()
        assert first == [("ECHO", 1)]
        # A second sending step with no intervening receive/reset is a no-op.
        assert protocol.send_step() == []

    def test_receive_reenables_sending(self):
        protocol = EchoProtocol(pid=0, n=3, t=1, input_bit=1)
        protocol.send_step()
        protocol.receive_step(Message(sender=1, receiver=0, payload="x"))
        assert protocol.send_step() == [("ECHO", 1)]

    def test_reset_reenables_sending(self):
        protocol = EchoProtocol(pid=0, n=3, t=1, input_bit=1)
        protocol.send_step()
        protocol.reset()
        assert protocol.send_step() == [("ECHO", 1)]


class TestResetSemantics:
    def test_reset_increments_counter_and_clears_volatile_state(self):
        protocol = EchoProtocol(pid=0, n=3, t=1, input_bit=1)
        protocol.receive_step(Message(sender=1, receiver=0, payload="x"))
        assert protocol.volatile_state() == ("x",)
        protocol.reset()
        assert protocol.reset_count == 1
        assert protocol.volatile_state() == ()

    def test_reset_preserves_output_and_input(self):
        protocol = EchoProtocol(pid=0, n=3, t=1, input_bit=1)
        protocol.decide(1)
        protocol.reset()
        assert protocol.output == 1
        assert protocol.input_bit == 1


class TestRandomness:
    def test_coin_flip_counted_and_binary(self):
        protocol = EchoProtocol(pid=0, n=3, t=1, input_bit=1,
                                rng=random.Random(1))
        flips = [protocol.coin_flip() for _ in range(20)]
        assert protocol.coin_flips == 20
        assert set(flips).issubset({0, 1})

    def test_state_fingerprint_contains_persistent_fields(self):
        protocol = EchoProtocol(pid=0, n=3, t=1, input_bit=1)
        protocol.decide(0)
        fingerprint = protocol.state_fingerprint()
        assert fingerprint[0] == 1  # input
        assert fingerprint[1] == 0  # output
        assert fingerprint[2] == 0  # reset count


class TestFactory:
    def test_build_creates_one_instance_per_processor(self):
        factory = ProtocolFactory(EchoProtocol, n=4, t=1)
        protocols = factory.build([0, 1, 0, 1], seed=3)
        assert len(protocols) == 4
        assert [p.pid for p in protocols] == [0, 1, 2, 3]
        assert [p.input_bit for p in protocols] == [0, 1, 0, 1]

    def test_build_rejects_wrong_input_length(self):
        factory = ProtocolFactory(EchoProtocol, n=4, t=1)
        with pytest.raises(ValueError):
            factory.build([0, 1])

    def test_build_is_deterministic_given_seed(self):
        factory = ProtocolFactory(EchoProtocol, n=3, t=1)
        a = factory.build([0, 0, 0], seed=9)
        b = factory.build([0, 0, 0], seed=9)
        assert [p.rng.random() for p in a] == [p.rng.random() for p in b]

    def test_independent_streams_across_processors(self):
        factory = ProtocolFactory(EchoProtocol, n=3, t=1)
        protocols = factory.build([0, 0, 0], seed=9)
        draws = [p.rng.random() for p in protocols]
        assert len(set(draws)) == 3

    def test_properties_reports_structural_flags(self):
        factory = ProtocolFactory(EchoProtocol, n=3, t=1)
        assert factory.properties() == {"forgetful": True,
                                        "fully_communicative": False}
