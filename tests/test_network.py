"""Unit tests for the message buffer."""

import copy
import random

import pytest

from repro.simulation.errors import InvalidStepError
from repro.simulation.message import Message, broadcast
from repro.simulation.network import Network


@pytest.fixture
def network():
    return Network(4)


class TestSubmit:
    def test_submit_stamps_sequence_numbers(self, network):
        stored = network.submit(broadcast(0, 4, "a"))
        assert [m.sequence for m in stored] == [0, 1, 2, 3]
        stored = network.submit(broadcast(1, 4, "b"))
        assert [m.sequence for m in stored] == [4, 5, 6, 7]

    def test_submit_stamps_chain_depth(self, network):
        stored = network.submit(broadcast(0, 4, "a"), chain_depth=3)
        assert all(m.chain_depth == 3 for m in stored)

    def test_submit_rejects_unknown_receiver(self, network):
        with pytest.raises(InvalidStepError):
            network.submit([Message(sender=0, receiver=9, payload="x")])

    def test_submit_rejects_unknown_sender(self, network):
        with pytest.raises(InvalidStepError):
            network.submit([Message(sender=9, receiver=0, payload="x")])

    def test_sent_count(self, network):
        network.submit(broadcast(0, 4, "a"))
        network.submit(broadcast(1, 4, "b"))
        assert network.sent_count == 8


class TestPendingAndDelivery:
    def test_pending_for_receiver(self, network):
        network.submit(broadcast(0, 4, "a"))
        network.submit(broadcast(1, 4, "b"))
        pending = network.pending_for(2)
        assert len(pending) == 2
        assert {m.sender for m in pending} == {0, 1}

    def test_pending_for_with_sender_filter(self, network):
        network.submit(broadcast(0, 4, "a"))
        network.submit(broadcast(1, 4, "b"))
        pending = network.pending_for(2, senders={1})
        assert len(pending) == 1
        assert pending[0].sender == 1

    def test_deliver_removes_message(self, network):
        network.submit(broadcast(0, 4, "a"))
        message = network.pending_for(3)[0]
        delivered = network.deliver(message)
        assert delivered.payload == "a"
        assert network.pending_for(3) == []
        assert network.delivered_count == 1

    def test_deliver_unknown_message_raises(self, network):
        phantom = Message(sender=0, receiver=1, payload="x", sequence=999)
        with pytest.raises(InvalidStepError):
            network.deliver(phantom)

    def test_pending_count(self, network):
        network.submit(broadcast(0, 4, "a"))
        assert network.pending_count() == 4
        network.deliver(network.pending_for(0)[0])
        assert network.pending_count() == 3

    def test_all_pending_in_send_order(self, network):
        network.submit(broadcast(0, 4, "a"))
        network.submit(broadcast(1, 4, "b"))
        sequences = [m.sequence for m in network.all_pending()]
        assert sequences == sorted(sequences)


class TestWindowDeliveries:
    def test_take_window_deliveries_only_allowed_senders(self, network):
        network.submit(broadcast(0, 4, "a"))
        network.submit(broadcast(1, 4, "b"))
        network.submit(broadcast(2, 4, "c"))
        deliveries = network.take_window_deliveries(3, senders={0, 2})
        assert {m.sender for m in deliveries} == {0, 2}
        # Messages from sender 1 stay in the buffer.
        remaining = network.pending_for(3)
        assert {m.sender for m in remaining} == {1}

    def test_take_window_deliveries_newest_per_sender(self, network):
        network.submit(broadcast(0, 4, "old"))
        network.submit(broadcast(0, 4, "new"))
        deliveries = network.take_window_deliveries(1, senders={0})
        assert len(deliveries) == 1
        assert deliveries[0].payload == "new"
        # The stale message is still pending (it was superseded, not lost).
        assert len(network.pending_for(1)) == 1
        assert network.pending_for(1)[0].payload == "old"

    def test_take_window_deliveries_empty_when_no_match(self, network):
        deliveries = network.take_window_deliveries(0, senders={1, 2})
        assert deliveries == []


class TestDropAndPrune:
    def test_drop_channel_by_sender(self, network):
        network.submit(broadcast(0, 4, "a"))
        network.submit(broadcast(1, 4, "b"))
        dropped = network.drop_channel(sender=0)
        assert dropped == 4
        assert all(m.sender == 1 for m in network.all_pending())

    def test_drop_channel_by_receiver(self, network):
        network.submit(broadcast(0, 4, "a"))
        dropped = network.drop_channel(receiver=2)
        assert dropped == 1
        assert all(m.receiver != 2 for m in network.all_pending())

    def test_clear_stale_rounds(self, network):
        network.submit([Message(0, 1, ("VOTE", 1, 0)),
                        Message(2, 1, ("VOTE", 5, 1))])
        dropped = network.clear_stale_rounds(
            1, is_stale=lambda payload: payload[1] < 3)
        assert dropped == 1
        assert network.pending_for(1)[0].payload == ("VOTE", 5, 1)


class ReferenceNetwork:
    """The seed implementation's list-scan semantics, kept as an oracle.

    Mirrors the original per-receiver list buffer: linear-scan delivery,
    newest-per-sender window deliveries via a full queue re-scan, and
    filtered keep-loops for drops.  The optimized :class:`Network` must be
    observationally equivalent to this.
    """

    def __init__(self, n):
        self.n = n
        self._sequence = 0
        self._pending = {}
        self.delivered_count = 0
        self.sent_count = 0

    def submit(self, messages, chain_depth=1):
        stored = []
        for message in messages:
            stamped = Message(message.sender, message.receiver,
                              message.payload, self._sequence, chain_depth)
            self._sequence += 1
            self.sent_count += 1
            self._pending.setdefault(message.receiver, []).append(stamped)
            stored.append(stamped)
        return stored

    def pending_for(self, receiver, senders=None):
        messages = self._pending.get(receiver, [])
        if senders is None:
            return list(messages)
        return [m for m in messages if m.sender in senders]

    def pending_count(self):
        return sum(len(msgs) for msgs in self._pending.values())

    def all_pending(self):
        messages = [m for msgs in self._pending.values() for m in msgs]
        return sorted(messages, key=lambda m: m.sequence)

    def deliver(self, message):
        queue = self._pending.get(message.receiver, [])
        for index, candidate in enumerate(queue):
            if candidate.sequence == message.sequence:
                del queue[index]
                self.delivered_count += 1
                return candidate
        raise InvalidStepError("not pending")

    def take_window_deliveries(self, receiver, senders):
        queue = self._pending.get(receiver, [])
        newest = {}
        for message in queue:
            if message.sender in senders:
                current = newest.get(message.sender)
                if current is None or message.sequence > current.sequence:
                    newest[message.sender] = message
        deliveries = sorted(newest.values(), key=lambda m: m.sender)
        for message in deliveries:
            self.deliver(message)
        return deliveries

    def drop_channel(self, sender=None, receiver=None):
        dropped = 0
        for dest, queue in self._pending.items():
            if receiver is not None and dest != receiver:
                continue
            keep = []
            for message in queue:
                if sender is None or message.sender == sender:
                    dropped += 1
                else:
                    keep.append(message)
            self._pending[dest] = keep
        return dropped

    def clear_stale_rounds(self, receiver, is_stale):
        queue = self._pending.get(receiver, [])
        keep = [m for m in queue if not is_stale(m.payload)]
        dropped = len(queue) - len(keep)
        self._pending[receiver] = keep
        return dropped


class TestDifferentialAgainstReference:
    """Randomized op sequences must match the seed list-scan semantics."""

    N = 6

    def _assert_same_view(self, network, reference):
        assert network.pending_count() == reference.pending_count()
        assert network.all_pending() == reference.all_pending()
        for receiver in range(self.N):
            assert network.pending_for(receiver) == \
                reference.pending_for(receiver)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_operation_sequences(self, seed):
        rng = random.Random(seed)
        network = Network(self.N)
        reference = ReferenceNetwork(self.N)
        for step in range(120):
            if step % 10 == 9:
                # Engine.clone() deep-copies the network; the copy must
                # keep send order and carry on like the original.
                network = copy.deepcopy(network)
                assert network.all_pending() == reference.all_pending()
            op = rng.choice(["submit", "submit", "submit", "deliver",
                             "window", "window", "drop", "stale",
                             "pending"])
            if op == "submit":
                sender = rng.randrange(self.N)
                depth = rng.randint(1, 5)
                batch = broadcast(sender, self.N,
                                  ("VOTE", rng.randint(1, 4),
                                   rng.getrandbits(1)))
                got = network.submit(batch, chain_depth=depth)
                # The reference needs its own copies: the optimized network
                # stamps in place.
                expected = reference.submit(
                    [Message(m.sender, m.receiver, m.payload)
                     for m in got], chain_depth=depth)
                assert got == expected
            elif op == "deliver":
                pending = reference.all_pending()
                if pending:
                    target = rng.choice(pending)
                    assert network.deliver(target) == \
                        reference.deliver(target)
            elif op == "window":
                receiver = rng.randrange(self.N)
                senders = {pid for pid in range(self.N)
                           if rng.getrandbits(1)}
                assert network.take_window_deliveries(receiver, senders) \
                    == reference.take_window_deliveries(receiver, senders)
            elif op == "drop":
                sender = rng.choice([None, rng.randrange(self.N)])
                receiver = rng.choice([None, rng.randrange(self.N)])
                assert network.drop_channel(sender, receiver) == \
                    reference.drop_channel(sender, receiver)
            elif op == "stale":
                receiver = rng.randrange(self.N)
                cutoff = rng.randint(1, 4)
                predicate = lambda payload, c=cutoff: payload[1] < c
                assert network.clear_stale_rounds(receiver, predicate) == \
                    reference.clear_stale_rounds(receiver, predicate)
            else:
                receiver = rng.randrange(self.N)
                senders = {pid for pid in range(self.N)
                           if rng.getrandbits(1)}
                assert network.pending_for(receiver, senders) == \
                    reference.pending_for(receiver, senders)
            self._assert_same_view(network, reference)
        assert network.delivered_count == reference.delivered_count
        assert network.sent_count == reference.sent_count
