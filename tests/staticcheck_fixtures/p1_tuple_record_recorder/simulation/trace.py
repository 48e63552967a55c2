"""P1 fixture: tuple-record events, one recorder the engine never calls."""

from collections import namedtuple

_TraceEventFields = namedtuple("_TraceEventFields", ("kind", "pid"))


class TraceEvent(_TraceEventFields):
    __slots__ = ()


new_event = tuple.__new__


class ExecutionTrace:
    def __init__(self):
        self.events = []

    def record_send(self, pid):
        self.events.append(new_event(TraceEvent, ("send", pid)))

    def record_deliver(self, pid):
        self.events.append(new_event(TraceEvent, ("deliver", pid)))
