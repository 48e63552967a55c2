"""Protocol interface: the per-processor algorithm abstraction.

The paper models an algorithm as a collection of probability distributions on
(new state, outgoing messages) parameterized by (current state, received
message).  Concretely we express an algorithm as a class whose instances hold
the volatile per-processor state and expose the three kinds of steps the
execution model distinguishes (Section 2):

* a *sending step* (:meth:`Protocol.send_step`) — the processor places a set
  of messages into the message buffer.  Every protocol here sends only
  all-to-all broadcasts, so a sending step returns payloads and the network
  delivers each one to all ``n`` processors.  A sending step is a *complete
  response to prior events*: two consecutive sending steps with no receive or
  reset in between leave the state unchanged and send nothing the second
  time.  The base class enforces this via a dirty flag.
* a *receiving step* (:meth:`Protocol.receive_step`) — the only step that may
  consume local randomness.
* a *resetting step* (:meth:`Protocol.reset`) — erases the volatile memory,
  preserving only the identity, the input bit, the (write-once) output bit
  and the reset counter, exactly as in the paper's resetting-failure model.

Two structural properties from Section 5 are exposed as class attributes so
that experiments can check which lower bound applies to a protocol:
``forgetful`` (Definition 15) and ``fully_communicative`` (Definition 16).
"""

from __future__ import annotations

import abc
import random
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.determinism import seeded_rng
from repro.simulation.errors import ProtocolViolationError
from repro.simulation.message import Message


class Protocol(abc.ABC):
    """Base class for per-processor agreement protocol logic.

    Subclasses implement :meth:`_compose_payloads` (what to broadcast on a
    sending step) and :meth:`_handle_message` (how to react to a delivered
    message), and mutate their volatile state freely.  The write-once output bit is
    managed through :meth:`decide`, which enforces the paper's write-once
    semantics.

    Attributes:
        forgetful: True if each sent message depends only on the input bit
            and on messages received (and randomness sampled) since the
            previous sending event (Definition 15).
        fully_communicative: True if the protocol sends a message to all
            ``n`` processors whenever it has received the most recently sent
            messages from ``n - t`` processors (Definition 16).
    """

    forgetful: ClassVar[bool] = False
    fully_communicative: ClassVar[bool] = False

    def __init__(self, pid: int, n: int, t: int, input_bit: int,
                 rng: Optional[random.Random] = None) -> None:
        if not 0 <= pid < n:
            raise ValueError(f"pid {pid} out of range for n={n}")
        if input_bit not in (0, 1):
            raise ValueError(f"input bit must be 0 or 1, got {input_bit!r}")
        if not 0 <= t < n:
            raise ValueError(f"fault bound t={t} must satisfy 0 <= t < n")
        self.pid = pid
        self.n = n
        self.t = t
        self.input_bit = input_bit
        self.rng = rng if rng is not None else seeded_rng()
        self._output: Optional[int] = None
        self._reset_count = 0
        self._pending_send = True
        self._coin_flips = 0

    # ------------------------------------------------------------------
    # Output-bit management (write-once semantics).
    # ------------------------------------------------------------------
    @property
    def output(self) -> Optional[int]:
        """The write-once output bit, or ``None`` while undecided."""
        return self._output

    @property
    def decided(self) -> bool:
        """Whether this processor has written its output bit."""
        return self._output is not None

    def decide(self, value: int) -> None:
        """Write the output bit.

        Writing the same value twice is a no-op; writing a conflicting value
        raises :class:`ProtocolViolationError` because the output bit is
        write-once in the model.
        """
        if value not in (0, 1):
            raise ProtocolViolationError(
                f"processor {self.pid} attempted to decide {value!r}")
        if self._output is None:
            self._output = value
        elif self._output != value:
            raise ProtocolViolationError(
                f"processor {self.pid} attempted to overwrite output "
                f"{self._output} with {value}")

    # ------------------------------------------------------------------
    # Randomness accounting.
    # ------------------------------------------------------------------
    def coin_flip(self) -> int:
        """Sample a fresh unbiased random bit from the local source."""
        self._coin_flips += 1
        return self.rng.getrandbits(1)

    @property
    def coin_flips(self) -> int:
        """Total number of local coin flips sampled so far."""
        return self._coin_flips

    # ------------------------------------------------------------------
    # The three step types.
    # ------------------------------------------------------------------
    def send_step(self) -> List[Any]:
        """Take a sending step and return the payloads it broadcasts.

        Enforces the "complete response" semantics: if no receiving or
        resetting step has occurred since the previous sending step, the
        state is unchanged and nothing is sent.
        """
        if not self._pending_send:
            return []
        self._pending_send = False
        return self._compose_payloads()

    def receive_step(self, message: Message) -> None:
        """Take a receiving step: consume a delivered message.

        The engine delivers through :meth:`Processor.receive
        <repro.simulation.processor.Processor.receive>`, which does the
        same for a whole batch.
        """
        self._pending_send = True
        self._handle_message(message)

    def reset(self) -> None:
        """Take a resetting step: erase volatile memory.

        The identity, input bit, output bit and reset counter survive; the
        counter is incremented so that the reset is internally detectable,
        matching the paper's book-keeping device.
        """
        self._reset_count += 1
        self._pending_send = True
        self._on_reset()

    @property
    def reset_count(self) -> int:
        """Number of resetting failures suffered so far."""
        return self._reset_count

    # ------------------------------------------------------------------
    # Hooks for subclasses.
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _compose_payloads(self) -> List[Any]:
        """Return a fresh list of the payloads this sending step broadcasts.

        Each payload goes to all ``n`` processors in receiver order
        ``0..n-1``, this one included (Ben-Or and Bracha count their own
        message toward their thresholds); see :meth:`Network.broadcast
        <repro.simulation.network.Network.broadcast>`.  An empty list sends
        nothing.
        """

    @abc.abstractmethod
    def _handle_message(self, message: Message) -> None:
        """React to a delivered message (may sample local randomness)."""

    def _on_reset(self) -> None:
        """Erase volatile state.  Subclasses override to clear their fields."""

    # ------------------------------------------------------------------
    # Introspection used by adversaries and by configuration snapshots.
    # ------------------------------------------------------------------
    def volatile_state(self) -> Tuple:
        """A hashable snapshot of the volatile memory.

        Subclasses should override to expose their full state; the default
        exposes only the bookkeeping fields.  Snapshots feed the Hamming
        distance computations of the lower-bound machinery, so they must be
        deterministic functions of the memory contents.
        """
        return ()

    def state_fingerprint(self) -> Tuple:
        """Full per-processor state used in configuration snapshots.

        Includes the persistent fields the model says survive a reset (input
        bit, output bit, reset counter) plus the volatile state.
        """
        return (self.input_bit, self._output, self._reset_count,
                self.volatile_state())

    @classmethod
    def estimate_from_fingerprint(cls, fingerprint: Tuple) -> Optional[int]:
        """The current estimate encoded in a state fingerprint, if any.

        Configuration snapshots carry state *fingerprints*, not live
        protocol objects, so post-hoc analyses (e.g. the vote-margin
        objective of :mod:`repro.search.objectives`) need the protocol
        class to say where in its volatile state the estimate lives.
        The default returns ``None`` ("not exposed"); protocols with a
        single current estimate should override.
        """
        return None

    def current_estimate(self) -> Optional[int]:
        """The protocol's current preferred bit, if it has one.

        Full-information adversaries (e.g. the split-vote adversary) use this
        hook to inspect what a processor is about to vote for.  Protocols
        without a single current estimate may return ``None``.
        """
        return None

    def waiting_threshold(self) -> Optional[int]:
        """How many same-phase messages the protocol waits for before acting.

        The threshold-voting protocols act on the *first* ``T1`` (or
        ``n - t``) messages they receive for the current round; a
        full-information adversary exploits this by choosing the order of
        the receiving steps inside a window.  Protocols return the waiting
        quorum here so such adversaries can compute what the processor will
        actually see; ``None`` means the quorum is unknown.
        """
        return None

    def will_send(self) -> bool:
        """Whether the processor will send anything at its next sending step.

        A freshly reset processor of the Section 3 algorithm stays silent
        until it has resynchronised; adversaries use this hook to know how
        many messages will actually compete for a receiver's waiting quorum.
        """
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(pid={self.pid}, input={self.input_bit}, "
                f"output={self._output}, resets={self._reset_count})")


class ProtocolFactory:
    """Builds one protocol instance per processor with deterministic seeding.

    Args:
        protocol_cls: the :class:`Protocol` subclass to instantiate.
        n: number of processors.
        t: fault bound handed to each protocol instance.
        kwargs: extra keyword arguments forwarded to the protocol constructor
            (e.g. a :class:`~repro.core.thresholds.ThresholdConfig`).
    """

    def __init__(self, protocol_cls, n: int, t: int, **kwargs: Any) -> None:
        self.protocol_cls = protocol_cls
        self.n = n
        self.t = t
        self.kwargs = dict(kwargs)

    def build(self, inputs: List[int], seed: Optional[int] = None
              ) -> List[Protocol]:
        """Instantiate all ``n`` protocol instances.

        Args:
            inputs: list of ``n`` input bits.
            seed: master seed; each processor gets an independent stream
                derived from it, so executions are reproducible.
        """
        if len(inputs) != self.n:
            raise ValueError(
                f"expected {self.n} input bits, got {len(inputs)}")
        master = seeded_rng(seed)
        protocols = []
        for pid, input_bit in enumerate(inputs):
            rng = random.Random(master.getrandbits(64))
            protocols.append(
                self.protocol_cls(pid=pid, n=self.n, t=self.t,
                                  input_bit=input_bit, rng=rng,
                                  **self.kwargs))
        return protocols

    def properties(self) -> Dict[str, bool]:
        """Structural properties of the protocol class (Definitions 15-16)."""
        return {
            "forgetful": bool(self.protocol_cls.forgetful),
            "fully_communicative": bool(self.protocol_cls.fully_communicative),
        }


__all__ = ["Protocol", "ProtocolFactory"]
