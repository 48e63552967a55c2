"""Unit tests for the processor wrapper (crash/chain bookkeeping)."""

import pytest

from repro.protocols.base import Protocol
from repro.simulation.errors import InvalidStepError
from repro.simulation.message import Message
from repro.simulation.processor import Processor


class CountingProtocol(Protocol):
    """Decides once it has received ``quota`` messages."""

    def __init__(self, pid, n, t, input_bit, rng=None, quota=2):
        super().__init__(pid, n, t, input_bit, rng)
        self.quota = quota
        self.received = 0

    def _compose_payloads(self):
        return [("PING", self.input_bit)]

    def _handle_message(self, message):
        self.received += 1
        if self.received >= self.quota and not self.decided:
            self.decide(self.input_bit)

    def volatile_state(self):
        return (self.received,)


@pytest.fixture
def processor():
    return Processor(CountingProtocol(pid=0, n=3, t=1, input_bit=1))


class TestBasics:
    def test_passthrough_properties(self, processor):
        assert processor.pid == 0
        assert processor.input_bit == 1
        assert processor.output is None
        assert not processor.decided

    def test_send_step_counts_messages(self, processor):
        payloads = processor.send_step()
        assert payloads == [("PING", 1)]
        # One payload is broadcast to all three processors.
        assert processor.messages_sent == 3

    def test_receive_wrong_recipient_raises(self, processor):
        with pytest.raises(InvalidStepError):
            processor.receive([Message(sender=1, receiver=2, payload="x")])

    def test_receive_counts_and_decides(self, processor):
        processor.receive([Message(sender=1, receiver=0, payload="a")])
        processor.receive([Message(sender=2, receiver=0, payload="b")])
        assert processor.messages_received == 2
        assert processor.decided
        assert processor.output == 1


class TestCrash:
    def test_crashed_processor_sends_nothing(self, processor):
        processor.crash()
        assert processor.send_step() == []

    def test_delivery_to_crashed_processor_raises(self, processor):
        processor.crash()
        with pytest.raises(InvalidStepError):
            processor.receive([Message(sender=1, receiver=0, payload="x")])

    def test_reset_of_crashed_processor_raises(self, processor):
        processor.crash()
        with pytest.raises(InvalidStepError):
            processor.reset()

    def test_crashed_fingerprint_is_tagged(self, processor):
        live = processor.state_fingerprint()
        processor.crash()
        crashed = processor.state_fingerprint()
        assert crashed[0] == "crashed"
        assert crashed != live


class TestMessageChains:
    def test_outgoing_chain_depth_tracks_deepest_received(self, processor):
        assert processor.outgoing_chain_depth == 1
        processor.receive([Message(sender=1, receiver=0, payload="a",
                                   chain_depth=4)])
        assert processor.outgoing_chain_depth == 5

    def test_deciding_chain_depth_recorded_at_decision(self, processor):
        processor.receive([Message(sender=1, receiver=0, payload="a",
                                   chain_depth=2)])
        assert processor.deciding_chain_depth is None
        processor.receive([Message(sender=2, receiver=0, payload="b",
                                   chain_depth=7)])
        assert processor.decided
        assert processor.deciding_chain_depth == 7

    def test_deciding_chain_depth_not_updated_after_decision(self, processor):
        processor.receive([Message(sender=1, receiver=0, payload="a",
                                   chain_depth=2)])
        processor.receive([Message(sender=2, receiver=0, payload="b",
                                   chain_depth=3)])
        depth_at_decision = processor.deciding_chain_depth
        processor.receive([Message(sender=1, receiver=0, payload="c",
                                   chain_depth=50)])
        assert processor.deciding_chain_depth == depth_at_decision
