"""Unit tests for the message buffer."""

import copy
import random

import pytest

from repro.simulation.errors import InvalidStepError
from repro.simulation.message import Message
from repro.simulation.network import Network


@pytest.fixture
def network():
    return Network(4)


def pending_to(network, receiver):
    """The undelivered messages addressed to ``receiver``, in send order."""
    return [m for m in network.all_pending() if m.receiver == receiver]


class TestBroadcast:
    def test_broadcast_stamps_sequence_numbers(self, network):
        stored = network.broadcast(0, ["a"])
        assert [m.sequence for m in stored] == [0, 1, 2, 3]
        stored = network.broadcast(1, ["b"])
        assert [m.sequence for m in stored] == [4, 5, 6, 7]

    def test_broadcast_stamps_chain_depth(self, network):
        stored = network.broadcast(0, ["a"], chain_depth=3)
        assert all(m.chain_depth == 3 for m in stored)

    def test_broadcast_rejects_unknown_sender(self, network):
        with pytest.raises(InvalidStepError):
            network.broadcast(9, ["x"])

    def test_sent_count(self, network):
        network.broadcast(0, ["a"])
        network.broadcast(1, ["b"])
        assert network.sent_count == 8


class TestPendingAndDelivery:
    def test_deliver_removes_message(self, network):
        network.broadcast(0, ["a"])
        message = pending_to(network, 3)[0]
        delivered = network.deliver(message)
        assert delivered.payload == "a"
        assert pending_to(network, 3) == []
        assert network.delivered_count == 1

    def test_deliver_unknown_message_raises(self, network):
        phantom = Message(sender=0, receiver=1, payload="x", sequence=999)
        with pytest.raises(InvalidStepError):
            network.deliver(phantom)

    def test_pending_count(self, network):
        network.broadcast(0, ["a"])
        assert network.pending_count() == 4
        network.deliver(pending_to(network, 0)[0])
        assert network.pending_count() == 3

    def test_all_pending_in_send_order(self, network):
        network.broadcast(0, ["a"])
        network.broadcast(1, ["b"])
        sequences = [m.sequence for m in network.all_pending()]
        assert sequences == sorted(sequences)

    def test_deliver_trims_ghosts_from_both_channel_ends(self, network):
        """A step delivery leaves no delivered message in its channel's
        deque at either end, only the live ones between."""
        network.broadcast(0, ["a", "b", "c", "d"])
        first, second, third, fourth = pending_to(network, 1)
        network.deliver(second)  # a middle ghost stays until exposed
        network.deliver(fourth)
        assert [m.payload for m in network._channels[1][0]] == [
            "a", "b", "c"]
        network.deliver(first)
        assert [m.payload for m in network._channels[1][0]] == ["c"]
        network.deliver(third)
        assert not network._channels[1][0]

    def test_step_fuzzing_keeps_channel_deques_near_pending(self):
        """Bracha step fuzzing delivers out of order; the channel deques
        stay within twice the pending messages instead of keeping a
        ghost per delivered message."""
        from repro.adversaries.registry import build_adversary
        from repro.runner.spec import build_engine
        from repro.verification import resolve_fuzz_params
        from repro.verification.fuzzer import fuzz_trial_spec

        params = resolve_fuzz_params(protocol="bracha", trials=1, seed=1)
        spec = fuzz_trial_spec(params, 0)
        engine = build_engine(spec)
        engine.run(build_adversary(spec.adversary, **spec.adversary_kwargs),
                   max_steps=spec.max_steps, stop_when=spec.stop_when)
        network = engine.network
        entries = sum(len(queue) for channels in network._channels
                      for queue in channels)
        assert network.pending_count() > 0
        assert entries <= 2 * network.pending_count()


class TestWindowDeliveries:
    def test_take_window_deliveries_only_allowed_senders(self, network):
        network.broadcast(0, ["a"])
        network.broadcast(1, ["b"])
        network.broadcast(2, ["c"])
        deliveries = network.take_window_deliveries(3, [0, 2])
        assert {m.sender for m in deliveries} == {0, 2}
        # Messages from sender 1 stay in the buffer.
        remaining = pending_to(network, 3)
        assert {m.sender for m in remaining} == {1}

    def test_take_window_deliveries_newest_per_sender(self, network):
        network.broadcast(0, ["old"])
        network.broadcast(0, ["new"])
        deliveries = network.take_window_deliveries(1, [0])
        assert len(deliveries) == 1
        assert deliveries[0].payload == "new"
        # The stale message is still pending (it was superseded, not lost).
        assert [m.payload for m in pending_to(network, 1)] == ["old"]

    def test_take_window_deliveries_empty_when_no_match(self, network):
        deliveries = network.take_window_deliveries(0, [1, 2])
        assert deliveries == []

    def test_take_window_deliveries_follows_the_given_order(self, network):
        for sender in range(4):
            network.broadcast(sender, [sender])
        deliveries = network.take_window_deliveries(2, [3, 0, 2])
        assert [m.sender for m in deliveries] == [3, 0, 2]
        assert network.delivered_count == 3

    def test_take_window_deliveries_skips_middle_ghosts(self, network):
        """A step delivery can leave a delivered message inside a
        channel; a window delivery pops past it to the newest live one."""
        network.broadcast(0, ["a", "b", "c", "d"])
        first, second, third, fourth = pending_to(network, 1)
        network.deliver(second)
        network.deliver(third)
        assert len(network._channels[1][0]) == 4
        assert network.take_window_deliveries(1, [0]) == [fourth]
        assert network.take_window_deliveries(1, [0]) == [first]
        assert not network._channels[1][0]
        assert network.take_window_deliveries(1, [0]) == []


class ReferenceNetwork:
    """The seed implementation's list-scan semantics, kept as an oracle.

    Mirrors the original per-receiver list buffer: linear-scan delivery
    and lookup, and newest-per-sender window deliveries via a full queue
    re-scan.  The optimized :class:`Network` must be observationally
    equivalent to this.
    """

    def __init__(self, n):
        self.n = n
        self._sequence = 0
        self._pending = {}
        self.delivered_count = 0
        self.sent_count = 0

    def broadcast(self, sender, payloads, chain_depth=1):
        if not 0 <= sender < self.n:
            raise InvalidStepError("unknown sender")
        stored = []
        for payload in payloads:
            for receiver in range(self.n):
                stamped = Message(sender, receiver, payload, self._sequence,
                                  chain_depth)
                self._sequence += 1
                self.sent_count += 1
                self._pending.setdefault(receiver, []).append(stamped)
                stored.append(stamped)
        return stored

    def pending_count(self):
        return sum(len(msgs) for msgs in self._pending.values())

    def all_pending(self):
        messages = [m for msgs in self._pending.values() for m in msgs]
        return sorted(messages, key=lambda m: m.sequence)

    def find_pending(self, sequence):
        for message in self.all_pending():
            if message.sequence == sequence:
                return message
        return None

    def deliver(self, message):
        queue = self._pending.get(message.receiver, [])
        for index, candidate in enumerate(queue):
            if candidate.sequence == message.sequence:
                del queue[index]
                self.delivered_count += 1
                return candidate
        raise InvalidStepError("not pending")

    def take_window_deliveries(self, receiver, order):
        queue = self._pending.get(receiver, [])
        newest = {}
        for message in queue:
            if message.sender in order:
                current = newest.get(message.sender)
                if current is None or message.sequence > current.sequence:
                    newest[message.sender] = message
        deliveries = [newest[sender] for sender in order if sender in newest]
        for message in deliveries:
            self.deliver(message)
        return deliveries


class TestDifferentialAgainstReference:
    """Randomized op sequences must match the seed list-scan semantics."""

    N = 6

    def _assert_same_view(self, network, reference):
        assert network.pending_count() == reference.pending_count()
        assert network.all_pending() == reference.all_pending()

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
            op = rng.choice(["broadcast", "broadcast", "broadcast", "deliver",
                             "window", "window", "find"])
            if op == "broadcast":
                sender = rng.randrange(self.N)
                depth = rng.randint(1, 5)
                payloads = [("VOTE", rng.randint(1, 4), rng.getrandbits(1))
                            for _ in range(rng.choice((0, 1, 1, 2)))]
                assert network.broadcast(sender, payloads, depth) == \
                    reference.broadcast(sender, payloads, depth)
            elif op == "deliver":
                pending = reference.all_pending()
                if pending:
                    target = rng.choice(pending)
                    assert network.deliver(target) == \
                        reference.deliver(target)
            elif op == "window":
                receiver = rng.randrange(self.N)
                order = [pid for pid in range(self.N) if rng.getrandbits(1)]
                rng.shuffle(order)
                assert network.take_window_deliveries(receiver, order) \
                    == reference.take_window_deliveries(receiver, order)
            else:
                # Sequences past the newest one were never sent.
                sequence = rng.randrange(network.sent_count + 2)
                assert network.find_pending(sequence) == \
                    reference.find_pending(sequence)
            self._assert_same_view(network, reference)
        assert network.delivered_count == reference.delivered_count
        assert network.sent_count == reference.sent_count
