"""Unit tests for message primitives."""

import copy
import pickle

import pytest

from repro.simulation.errors import InvalidStepError
from repro.simulation.message import Message
from repro.simulation.network import Network


class TestMessage:
    def test_fields(self):
        message = Message(sender=1, receiver=2, payload=("VOTE", 1, 0))
        assert message.sender == 1
        assert message.receiver == 2
        assert message.payload == ("VOTE", 1, 0)
        assert message.sequence == -1
        assert message.chain_depth == 1

    def test_with_sequence_returns_new_object(self):
        message = Message(sender=0, receiver=1, payload="x")
        stamped = message.with_sequence(7)
        assert stamped.sequence == 7
        assert message.sequence == -1
        assert stamped is not message

    def test_with_chain_depth(self):
        message = Message(sender=0, receiver=1, payload="x")
        deep = message.with_chain_depth(5)
        assert deep.chain_depth == 5
        assert message.chain_depth == 1

    def test_corrupted_replaces_payload_only(self):
        message = Message(sender=3, receiver=4, payload=("VOTE", 2, 1),
                          sequence=9)
        corrupted = message.corrupted(("VOTE", 2, 0))
        assert corrupted.payload == ("VOTE", 2, 0)
        assert corrupted.sender == 3
        assert corrupted.receiver == 4
        assert corrupted.sequence == 9

    def test_key_ignores_bookkeeping(self):
        a = Message(sender=1, receiver=2, payload="p", sequence=5,
                    chain_depth=3)
        b = Message(sender=1, receiver=2, payload="p", sequence=9,
                    chain_depth=7)
        assert a.key() == b.key()

    def test_immutability(self):
        message = Message(sender=0, receiver=1, payload="x")
        with pytest.raises(Exception):
            message.sender = 5  # type: ignore[misc]


class TestMessageContract:
    """What the pool, ``Engine.clone`` and the network rely on."""

    FIELDS = ("sender", "receiver", "payload", "sequence", "chain_depth")

    def sample(self):
        return Message(sender=2, receiver=5, payload=("VOTE", 3, 1),
                       sequence=41, chain_depth=7)

    def test_pickle_round_trip(self):
        message = self.sample()
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(message, protocol=protocol))
            assert type(back) is Message
            assert back == message
            assert back.chain_depth == 7 and back.sequence == 41

    def test_deepcopy_round_trip(self):
        message = self.sample()
        clone = copy.deepcopy(message)
        assert type(clone) is Message
        assert clone == message
        assert clone.payload == ("VOTE", 3, 1)

    def test_equal_messages_hash_and_compare_equal(self):
        a, b = self.sample(), self.sample()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != a.with_sequence(42)
        assert a != a.with_chain_depth(8)

    def test_copies_are_messages(self):
        message = self.sample()
        for copied in (message.corrupted(("VOTE", 3, 0)),
                       message.with_sequence(0),
                       message.with_chain_depth(1)):
            assert type(copied) is Message

    def test_every_field_refuses_assignment(self):
        message = self.sample()
        for field in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(message, field, 0)
        with pytest.raises(AttributeError):
            message.extra = 0  # no per-instance __dict__
        assert message == self.sample()

    def test_positional_and_keyword_construction_agree(self):
        assert Message(2, 5, ("VOTE", 3, 1), 41, 7) == self.sample()
        assert Message(0, 1, "x") == Message(sender=0, receiver=1,
                                             payload="x", sequence=-1,
                                             chain_depth=1)


class TestBroadcast:
    """A sending step's payloads enter the network through one call."""

    def test_broadcast_includes_self_in_receiver_order(self):
        messages = Network(5).broadcast(2, ["hello"])
        assert [m.receiver for m in messages] == [0, 1, 2, 3, 4]
        assert all(m.sender == 2 for m in messages)
        assert all(m.payload == "hello" for m in messages)

    def test_broadcast_numbers_payload_by_payload(self):
        network = Network(3)
        messages = network.broadcast(1, ["a", "b"])
        assert [(m.payload, m.receiver, m.sequence) for m in messages] == [
            ("a", 0, 0), ("a", 1, 1), ("a", 2, 2),
            ("b", 0, 3), ("b", 1, 4), ("b", 2, 5)]
        later = network.broadcast(0, ["c"])
        assert [m.sequence for m in later] == [6, 7, 8]
        assert network.sent_count == 9

    def test_broadcast_stamps_chain_depth(self):
        messages = Network(4).broadcast(3, ["x"], chain_depth=7)
        assert [m.chain_depth for m in messages] == [7, 7, 7, 7]

    def test_broadcast_of_no_payloads_sends_nothing(self):
        network = Network(4)
        assert network.broadcast(0, []) == []
        assert network.sent_count == 0

    @pytest.mark.parametrize("sender", [-1, 5])
    def test_broadcast_rejects_unknown_sender(self, sender):
        network = Network(5)
        with pytest.raises(InvalidStepError):
            network.broadcast(sender, ["x"])
        assert network.sent_count == 0
        assert network.pending_count() == 0

    def test_broadcast_single_processor(self):
        messages = Network(1).broadcast(0, [1])
        assert len(messages) == 1
        assert messages[0].receiver == 0
