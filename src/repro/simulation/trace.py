"""Execution results and traces.

The execution engine produces an :class:`ExecutionResult` summarising the
quantities the paper's theorems talk about: whether agreement and validity
held in every reachable configuration along the way, when the first decision
happened (in acceptable windows for the strongly adaptive model, in
message-chain length for the crash model), and how much communication was
used.

When asked (``record_trace=True``), the engine additionally records an
:class:`ExecutionTrace`: a flat, ordered log of every send, delivery, reset,
crash and decision, plus — for window executions — the
:class:`~repro.simulation.windows.WindowSpec` of every executed window.
The trace is the evidence the verification layer
(:mod:`repro.verification`) replays: the
:class:`~repro.verification.invariants.InvariantChecker` re-derives the
paper's trace-level invariants from it without trusting the engine's own
summary flags, and the differential replayer re-executes a window trace
step by step.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, List, Optional, Sequence,
                    Set, Tuple)

from repro.simulation.configuration import Configuration

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simulation.message import Message
    from repro.simulation.windows import WindowSpec


_TraceEventFields = namedtuple(
    "_TraceEventFields", ("kind", "pid", "window", "value", "sequence",
                          "sender", "sequences", "corrupted", "lost"),
    defaults=(None, None, None, None, (), False, False))


class TraceEvent(_TraceEventFields):
    """One recorded event of an execution.

    An immutable tuple record laid out like
    :class:`~repro.simulation.message.Message`: equality and hashing are
    those of the field tuple, and the engine's recorders build each event
    in one C call (:data:`new_event`).

    Attributes:
        kind: ``"send"``, ``"deliver"``, ``"reset"``, ``"crash"`` or
            ``"decide"``.
        pid: the acting processor — the sender of a sending step, the
            receiver of a delivery, the victim of a reset/crash, the
            decider of a decision.
        window: 0-based index of the acceptable window the event belongs
            to (``None`` for step-engine events).
        value: for ``"decide"``, the decided bit.
        sequence: for ``"deliver"``, the delivered message's network
            sequence number.
        sender: for ``"deliver"``, the delivered message's sender.
        sequences: for ``"send"``, the sequence numbers stamped on the
            submitted messages (empty when the sending step sent nothing).
        corrupted: for ``"deliver"``, whether an adversary replaced the
            payload before it reached the receiver.
        lost: for ``"deliver"``, whether the message was removed from the
            buffer but never processed (delivery to a crashed processor).
    """

    __slots__ = ()


new_event = tuple.__new__
"""``new_event(TraceEvent, fields)`` builds an event from its nine fields
in one C call; the per-step recorders (:meth:`ExecutionTrace.record_send`
and :meth:`ExecutionTrace.record_deliver`) use it."""


@dataclass
class ExecutionTrace:
    """The full event log of one execution, engine-independent evidence.

    Attributes:
        engine: ``"window"`` or ``"step"`` — whether windows or single
            steps were scheduled.
        n: number of processors.
        t: fault bound the execution was run under.
        inputs: the initial input bits.
        seed: the engine's master randomness seed.
        crash_budget: the engine's cumulative crash cap (``None`` when not
            recorded).
        reset_budget: the engine's total reset cap (``None`` = unlimited).
        events: every recorded event, in execution order.
        windows: for window executions, the executed window specifications
            in order; ``windows[w]`` is the spec behind every event with
            ``window == w``.
    """

    engine: str
    n: int
    t: int
    inputs: Tuple[int, ...]
    seed: Optional[int] = None
    crash_budget: Optional[int] = None
    reset_budget: Optional[int] = None
    events: List[TraceEvent] = field(default_factory=list)
    windows: List["WindowSpec"] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Recording (called by the engine).
    # ------------------------------------------------------------------
    def record_window(self, spec: "WindowSpec") -> None:
        """Append the specification of the window about to execute."""
        self.windows.append(spec)

    def record_send(self, pid: int, messages: Sequence["Message"],
                    window: Optional[int] = None) -> None:
        """Record a sending step and the sequences it submitted."""
        self.events.append(new_event(TraceEvent, (
            "send", pid, window, None, None, None,
            tuple(message.sequence for message in messages), False,
            False)))

    def record_deliver(self, message: "Message",
                       window: Optional[int] = None,
                       corrupted: bool = False, lost: bool = False) -> None:
        """Record the delivery (or crash-loss) of a buffered message."""
        self.events.append(new_event(TraceEvent, (
            "deliver", message.receiver, window, None, message.sequence,
            message.sender, (), corrupted, lost)))

    def record_reset(self, pid: int, window: Optional[int] = None) -> None:
        """Record a resetting failure."""
        self.events.append(TraceEvent(kind="reset", pid=pid, window=window))

    def record_crash(self, pid: int, window: Optional[int] = None) -> None:
        """Record a crash failure."""
        self.events.append(TraceEvent(kind="crash", pid=pid, window=window))

    def record_decide(self, pid: int, value: Optional[int],
                      window: Optional[int] = None) -> None:
        """Record a processor writing its output bit."""
        self.events.append(TraceEvent(kind="decide", pid=pid, value=value,
                                      window=window))

    # ------------------------------------------------------------------
    # Inspection (used by the invariant checker and tests).
    # ------------------------------------------------------------------
    def events_of(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in execution order."""
        return [event for event in self.events if event.kind == kind]

    def decisions(self) -> List[Tuple[int, Optional[int]]]:
        """(pid, value) pairs of every decision event, in order."""
        return [(event.pid, event.value) for event in self.events
                if event.kind == "decide"]

    def crashed_pids(self) -> Set[int]:
        """Identities of processors that suffered a crash event."""
        return {event.pid for event in self.events if event.kind == "crash"}

    def deliveries_by_window(self) -> List[List[TraceEvent]]:
        """Delivery events grouped by window index, in recorded order.

        Only meaningful for window traces; the differential
        replayer uses this to re-issue the same deliveries step by step.
        """
        grouped: List[List[TraceEvent]] = [[] for _ in self.windows]
        for event in self.events:
            if event.kind == "deliver" and event.window is not None:
                grouped[event.window].append(event)
        return grouped


@dataclass
class ExecutionResult:
    """Summary of a single simulated execution.

    Attributes:
        n: number of processors.
        t: fault bound used by the adversary/protocol.
        inputs: the initial input bits.
        outputs: the final output bits (``None`` for undecided processors).
        crashed: identities of processors that crashed during the execution.
        windows_elapsed: number of acceptable windows executed (``0`` when
            single steps were scheduled).
        steps_elapsed: number of single steps executed (``0`` when windows
            were scheduled).
        first_decision_window: index (1-based) of the window in which the
            first processor decided, or ``None`` if no decision occurred.
        first_decision_step: step index of the first decision (``None``
            when windows were scheduled).
        message_chain_length: longest message chain received by any
            processor before it decided — the running-time measure used for
            the crash-failure lower bound (Theorem 17).
        messages_sent: total messages submitted to the network.
        messages_delivered: total messages delivered.
        total_resets: number of resetting failures applied.
        total_coin_flips: total local coin flips across all processors.
        agreement_violated: True if two processors ever decided
            conflicting values (breaks Definition 2).
        validity_violated: True if some decided value matched no input.
        configurations: optional per-window configuration snapshots, when
            the engine was asked to record them.
        trace: the full event log, when the engine was asked to record it
            (``record_trace=True``); consumed by :mod:`repro.verification`.
    """

    n: int
    t: int
    inputs: Tuple[int, ...]
    outputs: Tuple[Optional[int], ...]
    crashed: Tuple[int, ...] = ()
    windows_elapsed: int = 0
    steps_elapsed: int = 0
    first_decision_window: Optional[int] = None
    first_decision_step: Optional[int] = None
    message_chain_length: Optional[int] = None
    messages_sent: int = 0
    messages_delivered: int = 0
    total_resets: int = 0
    total_coin_flips: int = 0
    agreement_violated: bool = False
    validity_violated: bool = False
    configurations: List[Configuration] = field(default_factory=list)
    trace: Optional[ExecutionTrace] = None

    # ------------------------------------------------------------------
    # Derived predicates.
    # ------------------------------------------------------------------
    @property
    def decided(self) -> bool:
        """Whether at least one processor decided."""
        return any(output is not None for output in self.outputs)

    @property
    def decision_values(self) -> Set[int]:
        """The set of decided values."""
        return {output for output in self.outputs if output is not None}

    @property
    def all_live_decided(self) -> bool:
        """Whether every non-crashed processor decided."""
        crashed = set(self.crashed)
        return all(output is not None
                   for pid, output in enumerate(self.outputs)
                   if pid not in crashed)

    @property
    def agreement_ok(self) -> bool:
        """Safety: no two processors decided conflicting values."""
        return not self.agreement_violated and len(self.decision_values) <= 1

    @property
    def validity_ok(self) -> bool:
        """Validity: every decided value equals some processor's input."""
        if self.validity_violated:
            return False
        return self.decision_values.issubset(set(self.inputs))

    @property
    def correct(self) -> bool:
        """Agreement and validity both hold (Definition 2)."""
        return self.agreement_ok and self.validity_ok

    def running_time_windows(self) -> Optional[int]:
        """Running time in acceptable windows until the first decision.

        This is the running-time measure used for the strongly adaptive
        adversary (Section 2): the number of acceptable windows that pass
        before the first processor decides.
        """
        return self.first_decision_window

    def summary(self) -> dict:
        """A flat dictionary convenient for building experiment tables."""
        return {
            "n": self.n,
            "t": self.t,
            "decided": self.decided,
            "decision_values": sorted(self.decision_values),
            "windows": self.windows_elapsed,
            "first_decision_window": self.first_decision_window,
            "message_chain_length": self.message_chain_length,
            "messages_sent": self.messages_sent,
            "total_resets": self.total_resets,
            "coin_flips": self.total_coin_flips,
            "agreement_ok": self.agreement_ok,
            "validity_ok": self.validity_ok,
        }


__all__ = ["ExecutionResult", "ExecutionTrace", "TraceEvent"]
