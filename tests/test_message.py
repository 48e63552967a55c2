"""Unit tests for message primitives."""

import copy
import pickle

import pytest

from repro.simulation.message import Message, broadcast


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
    def test_broadcast_includes_self_by_default(self):
        messages = broadcast(2, 5, payload="hello")
        assert len(messages) == 5
        assert {m.receiver for m in messages} == set(range(5))
        assert all(m.sender == 2 for m in messages)
        assert all(m.payload == "hello" for m in messages)

    def test_broadcast_excluding_self(self):
        messages = broadcast(2, 5, payload="hello", include_self=False)
        assert len(messages) == 4
        assert 2 not in {m.receiver for m in messages}

    def test_broadcast_single_processor(self):
        messages = broadcast(0, 1, payload=1)
        assert len(messages) == 1
        assert messages[0].receiver == 0
