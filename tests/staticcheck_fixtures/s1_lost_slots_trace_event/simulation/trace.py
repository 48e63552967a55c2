"""S1 fixture: a tuple-record TraceEvent without ``__slots__ = ()``."""

from collections import namedtuple

_TraceEventFields = namedtuple("_TraceEventFields", ("kind", "pid"))


class TraceEvent(_TraceEventFields):
    """Every event now carries a per-instance ``__dict__``."""
