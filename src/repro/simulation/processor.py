"""Processor wrapper: a protocol instance plus failure bookkeeping.

A :class:`Processor` couples the per-processor protocol logic with the pieces
of state the *model* (rather than the algorithm) owns: whether the processor
has crashed, how many resetting failures it has suffered, and the
message-chain depth accounting used as the running-time measure in the
crash-failure setting (Section 5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.simulation.errors import InvalidStepError
from repro.simulation.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.protocols.base import Protocol


class Processor:
    """A single processor participating in an execution.

    Attributes:
        protocol: the protocol instance carrying the algorithm state.
        crashed: whether the processor has suffered a crash failure.  A
            crashed processor takes no further steps and receives nothing.
    """

    __slots__ = ("protocol", "crashed", "_max_received_chain",
                 "_deciding_chain_depth", "_messages_sent",
                 "_messages_received")

    def __init__(self, protocol: "Protocol") -> None:
        self.protocol = protocol
        self.crashed = False
        self._max_received_chain = 0
        self._deciding_chain_depth: Optional[int] = None
        self._messages_sent = 0
        self._messages_received = 0

    # ------------------------------------------------------------------
    # Identity and decision passthroughs.
    # ------------------------------------------------------------------
    @property
    def pid(self) -> int:
        """The processor identity."""
        return self.protocol.pid

    @property
    def output(self) -> Optional[int]:
        """The write-once output bit (``None`` while undecided)."""
        return self.protocol.output

    @property
    def decided(self) -> bool:
        """Whether the processor has decided."""
        return self.protocol.decided

    @property
    def input_bit(self) -> int:
        """The processor's input bit."""
        return self.protocol.input_bit

    # ------------------------------------------------------------------
    # Step execution.
    # ------------------------------------------------------------------
    def send_step(self) -> List[Any]:
        """Take a sending step, returning the payloads to broadcast.

        Crashed processors silently send nothing (their sending steps simply
        never get scheduled in a real execution; returning an empty list
        keeps the engine simple).
        """
        if self.crashed:
            return []
        payloads = self.protocol.send_step()
        self._messages_sent += len(payloads) * self.protocol.n
        return payloads

    def receive(self, messages: Sequence[Message]) -> bool:
        """Deliver messages in order; a single message is a batch of one.

        Equivalent to taking one receiving step per message: the crash
        check holds for the whole batch, each message must be addressed to
        this processor, and :attr:`deciding_chain_depth` is taken at the
        message whose receipt makes the protocol decide.  If a message is
        rejected (or the protocol raises), the messages before it stay
        received, exactly as step by step.

        Returns:
            Whether the protocol decided during this batch.

        Raises:
            InvalidStepError: if the processor has crashed or a message is
                addressed to someone else.
        """
        if self.crashed:
            raise InvalidStepError(
                f"cannot deliver to crashed processor {self.pid}")
        protocol = self.protocol
        pid = protocol.pid
        handle = protocol._handle_message
        chain = self._max_received_chain
        undecided = protocol._output is None
        decided_now = False
        received = 0
        try:
            for message in messages:
                if message.receiver != pid:
                    raise InvalidStepError(
                        f"message for {message.receiver} delivered to {pid}")
                received += 1
                if message.chain_depth > chain:
                    chain = message.chain_depth
                handle(message)
                if undecided and protocol._output is not None:
                    self._deciding_chain_depth = chain
                    undecided = False
                    decided_now = True
        finally:
            if received:
                # A receiving step is what makes the next sending step
                # respond (the "complete response" rule of Protocol).
                protocol._pending_send = True
                self._messages_received += received
                self._max_received_chain = chain
        return decided_now

    def reset(self) -> None:
        """Apply a resetting failure (erase volatile protocol memory)."""
        if self.crashed:
            raise InvalidStepError(
                f"cannot reset crashed processor {self.pid}")
        self.protocol.reset()

    def crash(self) -> None:
        """Apply a crash failure: the processor stops forever."""
        self.crashed = True

    # ------------------------------------------------------------------
    # Message-chain accounting (running-time measure of Theorem 17).
    # ------------------------------------------------------------------
    @property
    def outgoing_chain_depth(self) -> int:
        """Chain depth to stamp on messages sent at the next sending step.

        A message extends the longest chain among the messages its sender
        received before sending, so its depth is one more than that maximum.
        """
        return self._max_received_chain + 1

    @property
    def deciding_chain_depth(self) -> Optional[int]:
        """Longest received message chain at the moment of decision."""
        return self._deciding_chain_depth

    @property
    def messages_sent(self) -> int:
        """Number of messages this processor has sent."""
        return self._messages_sent

    @property
    def messages_received(self) -> int:
        """Number of messages delivered to this processor."""
        return self._messages_received

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def state_fingerprint(self) -> Tuple:
        """State snapshot used to build configurations.

        A crashed processor's fingerprint is tagged so that configurations
        distinguish crashed from live processors.
        """
        fingerprint = self.protocol.state_fingerprint()
        if self.crashed:
            return ("crashed",) + fingerprint
        return fingerprint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "crashed" if self.crashed else "live"
        return (f"Processor(pid={self.pid}, {status}, "
                f"output={self.output})")


__all__ = ["Processor"]
