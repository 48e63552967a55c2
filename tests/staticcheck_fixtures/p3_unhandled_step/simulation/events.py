"""P3 fixture: a StepType member the step engine never dispatches on."""


class StepType:
    SEND = "send"
    PRUNE = "prune"


class Step:
    __slots__ = ("step_type",)
