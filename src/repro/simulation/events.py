"""Step and event types for step-level (fully asynchronous) executions.

The engine (``repro.simulation.engine``) executes the paper's fine-grained
step types — sending, receiving, resetting — plus the crash and Byzantine
corruption events needed for the classical adversaries of Sections 1 and 5.
Window adversaries (``repro.simulation.windows``) schedule whole acceptable
windows of those steps, the natural granularity for the strongly adaptive
adversary; step adversaries schedule one :class:`Step` at a time.  This
module defines that step vocabulary.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from typing import Any

from repro.simulation.message import Message


class StepType(enum.Enum):
    """The kinds of steps a step-level adversary can schedule."""

    SEND = "send"
    """A processor takes a sending step (places messages in the buffer)."""

    RECEIVE = "receive"
    """A specific pending message is delivered to its recipient."""

    RESET = "reset"
    """A processor suffers a resetting failure (memory erased)."""

    CRASH = "crash"
    """A processor suffers a crash failure (stops forever)."""


_StepFields = namedtuple(
    "_StepFields", ("step_type", "pid", "message", "corrupted_payload"),
    defaults=(None, None))

_new_step = tuple.__new__


class Step(_StepFields):
    """A single scheduled step.

    An immutable tuple record laid out like
    :class:`~repro.simulation.message.Message`; the constructors below
    build one in a single C call.

    Attributes:
        step_type: which of the model's step kinds this is.
        pid: the processor acted upon (the sender for SEND, the recipient
            for RECEIVE, the victim for RESET/CRASH).
        message: for RECEIVE steps, the pending message to deliver.
        corrupted_payload: for RECEIVE steps scheduled by a Byzantine
            adversary, an optional replacement payload; ``None`` means the
            message is delivered unmodified.
    """

    __slots__ = ()

    @staticmethod
    def send(pid: int) -> "Step":
        """A sending step by processor ``pid``."""
        return _new_step(Step, (StepType.SEND, pid, None, None))

    @staticmethod
    def receive(message: Message, corrupted_payload: Any = None) -> "Step":
        """Delivery of ``message`` (optionally with a corrupted payload)."""
        return _new_step(Step, (StepType.RECEIVE, message.receiver, message,
                                corrupted_payload))

    @staticmethod
    def reset(pid: int) -> "Step":
        """A resetting failure at processor ``pid``."""
        return _new_step(Step, (StepType.RESET, pid, None, None))

    @staticmethod
    def crash(pid: int) -> "Step":
        """A crash failure at processor ``pid``."""
        return _new_step(Step, (StepType.CRASH, pid, None, None))


__all__ = ["StepType", "Step"]
