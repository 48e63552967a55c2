"""The message buffer connecting processors.

The network models the dedicated per-pair channels of the paper's model: a
sent message sits in the buffer until the adversary schedules its delivery.
The network never loses or duplicates messages on its own — all scheduling
power lives in the adversary.  It supports the operations the execution
engine needs, window by window or step by step:

* accepting a sending step's broadcasts (stamping sequence numbers and
  message-chain depths);
* listing every undelivered message in send order, or looking one up by
  sequence number;
* removing one message once the adversary delivers it (a step);
* removing the newest message from each allowed sender to one receiver,
  in a given sender order (an acceptable window: how it expresses the
  sets ``S_i`` and the order of the receiving steps).

Every protocol here sends only all-to-all broadcasts (in the Section 3
algorithm each processor sends ``(r, x)`` to all processors every round),
so :meth:`Network.broadcast` is the one way in: it stamps one message per
receiver for each payload, in receiver order ``0..n-1``.

Internally the buffer is indexed for the access patterns the engine
actually has: a dict keyed by sequence number makes :meth:`Network.deliver`
O(1), and a preallocated ``n x n`` table of channel deques, indexed
``[receiver][sender]``, makes the acceptable-window delivery
(:meth:`Network.take_window_deliveries`) proportional to the number of
allowed senders rather than to the number of undelivered messages.  Removal
through the sequence index leaves ghost entries in the deques; each
delivery trims them from both ends of its channel, and a window delivery
skips any left in the middle.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional

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
        # The same deques by sender, ``_outboxes[sender][receiver]``: the
        # channels one broadcast appends to, in receiver order.
        self._outboxes: List[List[Deque[Message]]] = [
            [self._channels[receiver][sender] for receiver in range(n)]
            for sender in range(n)]
        self._delivered_count = 0

    # ------------------------------------------------------------------
    # Sending.
    # ------------------------------------------------------------------
    def broadcast(self, sender: int, payloads: Iterable[Any],
                  chain_depth: int = 1) -> List[Message]:
        """Send each payload from ``sender`` to every processor.

        Args:
            sender: the broadcasting processor.
            payloads: the payloads of one sending step, in send order.
            chain_depth: message-chain depth to stamp on each message
                (``1 +`` the deepest chain the sender had received).

        Returns:
            The stamped messages stored in the buffer: for each payload in
            turn, one message per receiver ``0..n-1``, with consecutive
            sequence numbers.

        Raises:
            InvalidStepError: if ``sender`` is not an identity in
                ``[0, n)``.
        """
        n = self.n
        if not 0 <= sender < n:
            raise InvalidStepError(
                f"message from unknown processor {sender}")
        live = self._live
        outbox = self._outboxes[sender]
        sequence = self._sequence
        stored: List[Message] = []
        for payload in payloads:
            end = sequence + n
            batch = [new_message(Message, (sender, receiver, payload,
                                           sequence + receiver, chain_depth))
                     for receiver in range(n)]
            live.update(zip(range(sequence, end), batch))
            for queue, message in zip(outbox, batch):
                queue.append(message)
            stored += batch
            sequence = self._sequence = end
        return stored

    # ------------------------------------------------------------------
    # Inspection.
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Total number of undelivered messages."""
        return len(self._live)

    def all_pending(self) -> List[Message]:
        """All undelivered messages, in global send order.

        No sort is needed: only :meth:`broadcast` inserts into ``_live``, with
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
        """Total messages ever sent (sequence numbers start at 0)."""
        return self._sequence

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
                               order: Iterable[int]) -> List[Message]:
        """Remove and return the freshest message from each allowed sender.

        Acceptable windows deliver, to each processor ``i``, *the messages
        just sent to it* by the senders in ``S_i``.  Within a window each
        sender produces at most one message per destination,
        so this returns at most one message per allowed sender — the most
        recently sent one — leaving older undelivered messages in the buffer
        (they model the asynchrony the adversary may exploit later).

        Args:
            receiver: the receiving processor, an identity in ``[0, n)``.
            order: the allowed senders, each once, in the order their
                messages are delivered; every sender must be an identity
                in ``[0, n)``, as :meth:`WindowSpec.validate
                <repro.simulation.windows.WindowSpec.validate>` guarantees.

        Returns:
            The removed messages, in ``order``.
        """
        channels = self._channels[receiver]
        pop_live = self._live.pop
        deliveries: List[Message] = []
        for sender in order:
            queue = channels[sender]
            # Pop from the right until a live message turns up: the ghosts
            # popped on the way were delivered already.
            while queue:
                message = pop_live(queue.pop().sequence, None)
                if message is not None:
                    deliveries.append(message)
                    break
        self._delivered_count += len(deliveries)
        return deliveries


__all__ = ["Network"]
