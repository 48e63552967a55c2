"""The message buffer connecting processors.

The network models the dedicated per-pair channels of the paper's model: a
sent message sits in the buffer until the adversary schedules its delivery.
The network never loses or duplicates messages on its own — all scheduling
power lives in the adversary.  It supports the operations the execution
engine needs, window by window or step by step:

* accepting a batch of messages from a sending step (stamping sequence
  numbers and message-chain depths);
* listing every undelivered message in send order, or looking one up by
  sequence number;
* removing one message once the adversary delivers it (a step);
* removing the newest message from each allowed sender to one receiver
  (an acceptable window: how it expresses the sets ``S_i``).

Internally the buffer is indexed for the access patterns the engine
actually has: a dict keyed by sequence number makes :meth:`Network.deliver`
O(1), and a preallocated ``n x n`` table of channel deques, indexed
``[receiver][sender]``, makes the acceptable-window delivery
(:meth:`Network.take_window_deliveries`) proportional to the number of
allowed senders rather than to the number of undelivered messages.  Removal
through the sequence index leaves ghost entries in the deques; each
delivery trims them from both ends of its channel, and a window delivery
skips any left in the middle.

Messages are immutable: :meth:`Network.submit` builds each stamped message
in one allocation and returns those, not the objects it was handed.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set

from repro.simulation.errors import InvalidStepError
from repro.simulation.message import Message, new_message


class Network:
    """A message buffer with adversary-controlled delivery.

    Attributes:
        n: number of processors attached to the network.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._sequence = 0
        # Undelivered messages keyed by sequence number: the authoritative
        # "is this message still pending?" index, giving O(1) delivery.
        self._live: Dict[int, Message] = {}
        # Channel queues in send order, ``_channels[receiver][sender]``.
        # Entries whose sequence is no longer in ``_live`` are ghosts left
        # behind by out-of-order delivery and are skipped lazily.
        self._channels: List[List[Deque[Message]]] = [
            [deque() for _ in range(n)] for _ in range(n)]
        self._delivered_count = 0
        self._sent_count = 0

    # ------------------------------------------------------------------
    # Sending.
    # ------------------------------------------------------------------
    def submit(self, messages: Iterable[Message],
               chain_depth: int = 1) -> List[Message]:
        """Place messages into the buffer, stamping bookkeeping fields.

        Args:
            messages: messages produced by a sending step.
            chain_depth: message-chain depth to stamp on each message
                (``1 +`` the deepest chain the sender had received).

        Returns:
            The stamped messages actually stored in the buffer: new
            objects carrying the caller's sender, receiver and payload
            with this network's sequence numbers and ``chain_depth``.
        """
        stored = []
        n = self.n
        sequence = self._sequence
        live = self._live
        channels = self._channels
        try:
            for message in messages:
                sender = message.sender
                receiver = message.receiver
                if not 0 <= receiver < n:
                    raise InvalidStepError(
                        f"message addressed to unknown processor {receiver}")
                if not 0 <= sender < n:
                    raise InvalidStepError(
                        f"message from unknown processor {sender}")
                stamped = new_message(Message, (
                    sender, receiver, message.payload, sequence,
                    chain_depth))
                live[sequence] = stamped
                sequence += 1
                channels[receiver][sender].append(stamped)
                stored.append(stamped)
        finally:
            # Messages accepted before a mid-batch validation error stay
            # in the buffer, exactly as with per-message bookkeeping.
            self._sent_count += sequence - self._sequence
            self._sequence = sequence
        return stored

    # ------------------------------------------------------------------
    # Inspection.
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Total number of undelivered messages."""
        return len(self._live)

    def all_pending(self) -> List[Message]:
        """All undelivered messages, in global send order.

        No sort is needed: only :meth:`submit` inserts into ``_live``, with
        strictly increasing sequence numbers, and deleting a key keeps the
        insertion order of the rest, so the dict already iterates in send
        order (and so does its ``copy.deepcopy``).
        """
        return list(self._live.values())

    def find_pending(self, sequence: int) -> Optional[Message]:
        """The undelivered message with this sequence number, if any.

        Used by the verification layer's differential replayer, which
        re-issues a window trace's deliveries as single steps by sequence
        number.
        """
        return self._live.get(sequence)

    @property
    def sent_count(self) -> int:
        """Total messages ever submitted."""
        return self._sent_count

    @property
    def delivered_count(self) -> int:
        """Total messages ever delivered."""
        return self._delivered_count

    # ------------------------------------------------------------------
    # Delivery.
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> Message:
        """Remove a specific pending message from the buffer.

        Raises:
            InvalidStepError: if the message is not pending (e.g. the
                adversary asked to deliver something that was never sent).
        """
        candidate = self._live.get(message.sequence)
        if candidate is None or candidate.receiver != message.receiver:
            raise InvalidStepError(
                f"message {message} is not pending delivery")
        live = self._live
        del live[message.sequence]
        self._delivered_count += 1
        # Trim ghosts from both ends of the channel, so delivered messages
        # do not pile up in the deque behind the live ones.
        queue = self._channels[candidate.receiver][candidate.sender]
        while queue and queue[-1].sequence not in live:
            queue.pop()
        while queue and queue[0].sequence not in live:
            queue.popleft()
        return candidate

    def take_window_deliveries(self, receiver: int,
                               senders: Set[int]) -> List[Message]:
        """Remove and return the freshest message from each allowed sender.

        Acceptable windows deliver, to each processor ``i``, *the messages
        just sent to it* by the senders in ``S_i``.  Within a window each
        sender produces at most one message per destination,
        so this returns at most one message per allowed sender — the most
        recently sent one — leaving older undelivered messages in the buffer
        (they model the asynchrony the adversary may exploit later).
        ``receiver`` and every sender must be identities in ``[0, n)``,
        as :meth:`WindowSpec.validate
        <repro.simulation.windows.WindowSpec.validate>` guarantees.
        """
        channels = self._channels[receiver]
        live = self._live
        deliveries: List[Message] = []
        for sender in sorted(senders):
            queue = channels[sender]
            # Trim ghosts so the rightmost entry is the newest live message.
            while queue and queue[-1].sequence not in live:
                queue.pop()
            if queue:
                message = queue.pop()
                del live[message.sequence]
                deliveries.append(message)
        self._delivered_count += len(deliveries)
        return deliveries


__all__ = ["Network"]
