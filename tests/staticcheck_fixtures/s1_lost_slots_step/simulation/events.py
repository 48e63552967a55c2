"""S1 fixture: a tuple-record Step without ``__slots__ = ()``."""

from collections import namedtuple

_StepFields = namedtuple("_StepFields", ("step_type", "pid"))


class Step(_StepFields):
    """Every step now carries a per-instance ``__dict__``."""
