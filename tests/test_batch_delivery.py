"""Batch delivery through ``Processor.receive`` equals one-by-one delivery.

The engine hands each receiver a window's deliveries as one batch.  For
every protocol the engine runs, feeding a random message sequence as one
batch, in random chunks, or one message at a time must leave the same
processor: the same protocol state, counters, chain depths and next
sending step.  The sequences come from random asynchronous runs of the
protocol itself, so they reach a decision, which then falls mid-batch
and is followed by messages with deeper chains.
"""

import random

import pytest

from repro.protocols.base import ProtocolFactory
from repro.protocols.registry import get_protocol
from repro.simulation.errors import InvalidStepError
from repro.simulation.message import Message
from repro.simulation.processor import Processor

SHAPES = {"reset-tolerant": (7, 1), "ben-or": (5, 1), "bracha": (4, 1)}
SEEDS = range(4)


def factory_for(name):
    n, t = SHAPES[name]
    return ProtocolFactory(get_protocol(name).protocol_cls, n=n, t=t)


def inputs_for(name, seed):
    n, _ = SHAPES[name]
    rng = random.Random(seed)
    return [rng.choice((0, 1, 1)) for _ in range(n)]


def fresh_processor(name, seed):
    """Processor 0, built exactly as an engine at this seed builds it."""
    protocols = factory_for(name).build(inputs_for(name, seed), seed=seed)
    return Processor(protocols[0])


def traffic(name, seed, rounds_after_decision=3, limit=400):
    """What a random asynchronous run delivers to processor 0.

    Every processor sends, then a random share of the undelivered
    messages reaches its receivers in random order; this repeats until
    a few rounds after processor 0 decides, or until no message is left.
    Junk payloads are mixed in: protocols must ignore them in both
    delivery modes.
    """
    rng = random.Random(1000 + seed)
    protocols = factory_for(name).build(inputs_for(name, seed), seed=seed)
    n = len(protocols)
    pool, stream = [], []
    rounds_left = rounds_after_decision
    for _ in range(limit):
        for protocol in protocols:
            # Each payload goes to every processor, in receiver order.
            pool.extend(Message(protocol.pid, receiver, payload)
                        for payload in protocol.send_step()
                        for receiver in range(n))
        if not pool or rounds_left == 0:
            break
        rng.shuffle(pool)
        kept = []
        for message in pool:
            if rng.random() < 0.3:
                kept.append(message)
                continue
            protocols[message.receiver].receive_step(message)
            if message.receiver == 0:
                stream.append(message)
                if rng.random() < 0.1:
                    stream.append(Message(rng.randrange(n), 0, ("JUNK",)))
        pool = kept
        if protocols[0].decided:
            rounds_left -= 1
    assert protocols[0].decided, f"{name} seed {seed}: no decision"
    return stream


def decision_index(name, seed, stream):
    """Index of the message whose receipt decides, one by one (or len)."""
    processor = fresh_processor(name, seed)
    for index, message in enumerate(stream):
        processor.receive([message])
        if processor.decided:
            return index
    return len(stream)


def with_depths(name, seed, stream):
    """Stamp chain depths: shallow up to the decision, deeper after it."""
    rng = random.Random(2000 + seed)
    decided_at = decision_index(name, seed, stream)
    return [message.with_chain_depth(
        rng.randint(1, 9) if index <= decided_at else rng.randint(10, 60))
        for index, message in enumerate(stream)]


def observed(processor):
    return (processor.state_fingerprint(), processor.messages_received,
            processor.outgoing_chain_depth, processor.deciding_chain_depth,
            processor.output, processor.send_step(),
            processor.messages_sent)


def chunked(stream, rng):
    chunks, start = [], 0
    while start < len(stream):
        size = rng.randint(0, 6)
        chunks.append(stream[start:start + size])
        start += size
    return chunks


@pytest.mark.parametrize("name", sorted(SHAPES))
@pytest.mark.parametrize("seed", SEEDS)
def test_batch_equals_one_by_one(name, seed):
    stream = with_depths(name, seed, traffic(name, seed))
    decided_at = decision_index(name, seed, stream)
    # The decision falls mid-batch, with deeper chains after it.
    assert 0 < decided_at < len(stream) - 1
    assert max(m.chain_depth for m in stream[decided_at + 1:]) > \
        max(m.chain_depth for m in stream[:decided_at + 1])

    single = fresh_processor(name, seed)
    for message in stream:
        single.receive([message])
    batch = fresh_processor(name, seed)
    batch.receive(stream)
    pieces = fresh_processor(name, seed)
    for chunk in chunked(stream, random.Random(seed)):
        pieces.receive(chunk)

    # The protocol's own single-message step is the reference for its
    # state and its next sending step.
    reference = fresh_processor(name, seed).protocol
    for message in stream:
        reference.receive_step(message)
    expected = observed(single)
    assert (expected[0], expected[5]) == (reference.state_fingerprint(),
                                          reference.send_step())
    assert single.deciding_chain_depth == max(
        m.chain_depth for m in stream[:decided_at + 1])
    assert observed(batch) == expected
    assert observed(pieces) == expected


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_misaddressed_message_mid_batch_raises_after_its_prefix(name):
    stream = traffic(name, 0)
    cut = len(stream) // 2
    bad = Message(1, 2, stream[cut].payload, 99, 3)
    batch = fresh_processor(name, 0)
    with pytest.raises(InvalidStepError):
        batch.receive(stream[:cut] + [bad] + stream[cut:])
    prefix = fresh_processor(name, 0)
    for message in stream[:cut]:
        prefix.receive([message])
    assert observed(batch) == observed(prefix)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_crashed_receiver_rejects_any_batch(name):
    stream = traffic(name, 0)
    processor = fresh_processor(name, 0)
    processor.crash()
    for batch in (stream, stream[:1], []):
        with pytest.raises(InvalidStepError):
            processor.receive(batch)
    assert processor.messages_received == 0
