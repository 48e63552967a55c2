"""P1 fixture: the event vocabulary the engine must emit."""


class TraceEvent:
    __slots__ = ("kind", "pid")

    def __init__(self, kind, pid):
        self.kind = kind
        self.pid = pid


class ExecutionTrace:
    def __init__(self):
        self.events = []

    def record_send(self, pid):
        self.events.append(TraceEvent(kind="send", pid=pid))

    def record_deliver(self, pid):
        self.events.append(TraceEvent(kind="deliver", pid=pid))
