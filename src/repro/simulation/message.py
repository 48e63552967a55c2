"""Message primitives for the asynchronous message-passing model.

The paper (Section 2) works in a complete network of ``n`` processors where
every pair of processors is connected by a dedicated message channel, so the
recipient of a message always correctly identifies the sender.  A message is
therefore a triple (sender, receiver, contents); we additionally stamp each
message with a monotonically increasing sequence number when it enters the
network, which is used for deterministic replay and for message-chain
accounting (Section 5 measures running time by message-chain length).

A :class:`Message` is an immutable tuple-based record: building one is a
single tuple allocation, and its fields read through C-level accessors.
Nothing ever changes a message in place.  Every protocol here sends only
all-to-all broadcasts, so a sending step yields payloads, and
:meth:`Network.broadcast <repro.simulation.network.Network.broadcast>`
builds each stamped message once, as it enters the buffer.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Tuple

_MessageFields = namedtuple(
    "_MessageFields", ("sender", "receiver", "payload", "sequence",
                       "chain_depth"),
    defaults=(-1, 1))


class Message(_MessageFields):
    """A single message travelling on a dedicated sender->receiver channel.

    Equality and hashing are those of the field tuple, so two messages with
    equal fields are interchangeable.

    Attributes:
        sender: identity of the sending processor (``0 <= sender < n``).
        receiver: identity of the receiving processor (``0 <= receiver < n``).
        payload: the message contents.  Protocols use small immutable tuples
            such as ``("VOTE", round, bit)`` so that configurations remain
            hashable and comparable.
        sequence: network-assigned sequence number (``-1`` until the message
            is handed to a :class:`~repro.simulation.network.Network`).
        chain_depth: length of the longest message chain ending at this
            message, i.e. ``1 +`` the depth of the deepest message the sender
            had received before sending.  Used for Theorem 17 experiments.
    """

    __slots__ = ()

    def with_sequence(self, sequence: int) -> "Message":
        """Return a copy stamped with the given network sequence number."""
        return self._replace(sequence=sequence)

    def with_chain_depth(self, chain_depth: int) -> "Message":
        """Return a copy carrying the given message-chain depth."""
        return self._replace(chain_depth=chain_depth)

    def corrupted(self, payload: Any) -> "Message":
        """Return a copy whose payload has been replaced by an adversary.

        Used by Byzantine adversaries, which may arbitrarily rewrite the
        contents of messages sent by corrupted processors (the channel
        still truthfully reports the sender identity).
        """
        return self._replace(payload=payload)

    def key(self) -> Tuple[int, int, Any]:
        """A channel-level identity ignoring sequence/chain bookkeeping."""
        return (self.sender, self.receiver, self.payload)


new_message = tuple.__new__
"""``new_message(Message, fields)`` builds a message from its five fields in
one C call, skipping the Python-level constructor; the hot path
(:meth:`Network.broadcast <repro.simulation.network.Network.broadcast>`)
uses it."""


__all__ = ["Message"]
