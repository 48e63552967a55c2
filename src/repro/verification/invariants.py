"""Independent invariant checking over recorded execution traces.

The engine already summarises each execution in an
:class:`~repro.simulation.trace.ExecutionResult`, but those flags are
computed by the same code that runs the execution — a bookkeeping bug could
hide a real violation.  :class:`InvariantChecker` re-derives the paper's
trace-level guarantees from the raw event log
(:class:`~repro.simulation.trace.ExecutionTrace`) alone:

``agreement``
    No two (honest) processors decide conflicting values (Definition 2).
``validity``
    Every (honest) decided value equals some honest processor's input.
``decision-stability``
    The output bit is write-once: no processor's recorded decision is
    ever retracted or overwritten.
``window-acceptability``
    Every executed window satisfies Definition 1 — each sender set has at
    least ``n - t`` members, at most ``t`` resets per window — and every
    recorded delivery stays inside its window's sender set.
``fault-bound``
    At most ``t`` distinct processors ever crash (and at most the
    engine's ``crash_budget``, when it recorded one).
``reset-budget``
    Per-window resets stay within ``t`` (window model) and total resets
    within the engine's ``reset_budget`` (when one was set).
``message-causality``
    Deliveries reference previously sent messages, no message is
    delivered twice, and network sequence numbers are strictly
    increasing — the no-forgery/no-duplication guarantees of the
    dedicated-channel model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.simulation.errors import InvalidWindowError
from repro.simulation.trace import ExecutionTrace, TraceEvent

INVARIANTS: Tuple[str, ...] = (
    "agreement",
    "validity",
    "decision-stability",
    "window-acceptability",
    "fault-bound",
    "reset-budget",
    "message-causality",
)
"""Every invariant the checker re-derives, in report order."""


@dataclass(frozen=True)
class Violation:
    """One invariant violation found in a trace.

    Attributes:
        invariant: which invariant broke (one of :data:`INVARIANTS`).
        detail: human-readable description with the offending events.
        window: the window the violation was detected in, when known.
    """

    invariant: str
    detail: str
    window: Optional[int] = None

    def __str__(self) -> str:  # pragma: no cover - display helper
        where = f" (window {self.window})" if self.window is not None else ""
        return f"{self.invariant}{where}: {self.detail}"


@dataclass
class VerificationReport:
    """The outcome of checking one trace.

    Attributes:
        n: number of processors in the checked execution.
        t: fault bound of the checked execution.
        engine: which engine produced the trace.
        corrupted: processors excluded from agreement/validity (Byzantine
            runs judge the honest processors only).
        violations: every violation found, grouped by invariant order.
    """

    n: int
    t: int
    engine: str
    corrupted: Tuple[int, ...] = ()
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the trace satisfied every invariant."""
        return not self.violations

    def violated_invariants(self) -> List[str]:
        """The distinct violated invariant names, in report order."""
        seen = []
        for violation in self.violations:
            if violation.invariant not in seen:
                seen.append(violation.invariant)
        return seen

    def summary(self) -> str:
        """A one-line summary, convenient for table rows."""
        if self.ok:
            return "-"
        return "; ".join(str(violation) for violation in self.violations)


class InvariantChecker:
    """Re-derives the paper's invariants from a recorded trace.

    Args:
        corrupted: processor identities under Byzantine control.  Their
            decisions are ignored by the agreement/validity checks and
            their inputs excluded from the validity base, matching how the
            Bracha experiments judge correctness over honest processors.
    """

    def __init__(self, corrupted: Sequence[int] = ()) -> None:
        self.corrupted = frozenset(corrupted)

    # ------------------------------------------------------------------
    def check(self, trace: ExecutionTrace) -> VerificationReport:
        """Check every invariant against ``trace``."""
        report = VerificationReport(
            n=trace.n, t=trace.t, engine=trace.engine,
            corrupted=tuple(sorted(self.corrupted)))
        self._check_decisions(trace, report)
        self._check_windows(trace, report)
        self._check_faults(trace, report)
        self._check_causality(trace, report)
        return report

    def check_result(self, result) -> VerificationReport:
        """Check the trace attached to an :class:`ExecutionResult`.

        Raises:
            ValueError: when the result carries no trace (the execution
                was not run with ``record_trace=True``).
        """
        if result.trace is None:
            raise ValueError(
                "ExecutionResult carries no trace; run the trial with "
                "record_trace=True to enable invariant checking")
        return self.check(result.trace)

    # ------------------------------------------------------------------
    # Agreement, validity, decision stability.
    # ------------------------------------------------------------------
    def _check_decisions(self, trace: ExecutionTrace,
                         report: VerificationReport) -> None:
        decided: Dict[int, Optional[int]] = {}
        honest_values: Dict[int, TraceEvent] = {}
        honest_inputs = {trace.inputs[pid] for pid in range(trace.n)
                         if pid not in self.corrupted}
        for event in trace.events:
            if event.kind != "decide":
                continue
            if event.pid in decided and decided[event.pid] != event.value:
                report.violations.append(Violation(
                    "decision-stability",
                    f"processor {event.pid} decided "
                    f"{decided[event.pid]} then {event.value}",
                    window=event.window))
            decided[event.pid] = event.value
            if event.pid in self.corrupted:
                continue
            for value, first in honest_values.items():
                if value != event.value:
                    report.violations.append(Violation(
                        "agreement",
                        f"processor {first.pid} decided {value} but "
                        f"processor {event.pid} decided {event.value}",
                        window=event.window))
            honest_values.setdefault(event.value, event)
            if event.value not in honest_inputs:
                report.violations.append(Violation(
                    "validity",
                    f"processor {event.pid} decided {event.value}, which "
                    f"is no honest processor's input "
                    f"(inputs: {sorted(honest_inputs)})",
                    window=event.window))

    # ------------------------------------------------------------------
    # Window acceptability and the reset budget.
    # ------------------------------------------------------------------
    def _check_windows(self, trace: ExecutionTrace,
                       report: VerificationReport) -> None:
        n, t = trace.n, trace.t
        for index, spec in enumerate(trace.windows):
            try:
                spec.validate(n, t)
            except InvalidWindowError as error:
                report.violations.append(Violation(
                    "window-acceptability", str(error), window=index))
        resets_per_window: Dict[int, int] = {}
        total_resets = 0
        for event in trace.events:
            if event.kind == "deliver" and event.window is not None:
                spec = trace.windows[event.window]
                if event.sender not in spec.senders_for[event.pid]:
                    report.violations.append(Violation(
                        "window-acceptability",
                        f"message from {event.sender} delivered to "
                        f"{event.pid} outside its sender set",
                        window=event.window))
            elif event.kind == "reset":
                total_resets += 1
                if event.window is not None:
                    count = resets_per_window.get(event.window, 0) + 1
                    resets_per_window[event.window] = count
                    if count == t + 1:
                        report.violations.append(Violation(
                            "reset-budget",
                            f"more than t = {t} resets in one window",
                            window=event.window))
        if trace.reset_budget is not None and \
                total_resets > trace.reset_budget:
            report.violations.append(Violation(
                "reset-budget",
                f"{total_resets} resets exceed the budget of "
                f"{trace.reset_budget}"))

    # ------------------------------------------------------------------
    # Crash-fault bound.
    # ------------------------------------------------------------------
    def _check_faults(self, trace: ExecutionTrace,
                      report: VerificationReport) -> None:
        crashed: Set[int] = set()
        for event in trace.events:
            if event.kind != "crash":
                continue
            crashed.add(event.pid)
        limit = trace.t
        if trace.crash_budget is not None:
            limit = min(limit, trace.crash_budget)
        if len(crashed) > limit:
            report.violations.append(Violation(
                "fault-bound",
                f"{len(crashed)} distinct processors crashed, exceeding "
                f"the bound of {limit}"))

    # ------------------------------------------------------------------
    # Message causality.
    # ------------------------------------------------------------------
    def _check_causality(self, trace: ExecutionTrace,
                         report: VerificationReport) -> None:
        sent: Set[int] = set()
        delivered: Set[int] = set()
        last_sequence = -1
        for event in trace.events:
            if event.kind == "send":
                for sequence in event.sequences:
                    if sequence <= last_sequence:
                        report.violations.append(Violation(
                            "message-causality",
                            f"sequence {sequence} stamped out of order "
                            f"(last was {last_sequence})",
                            window=event.window))
                    last_sequence = max(last_sequence, sequence)
                    sent.add(sequence)
            elif event.kind == "deliver":
                if event.sequence not in sent:
                    report.violations.append(Violation(
                        "message-causality",
                        f"delivery of sequence {event.sequence} to "
                        f"{event.pid}, which was never sent",
                        window=event.window))
                if event.sequence in delivered:
                    report.violations.append(Violation(
                        "message-causality",
                        f"sequence {event.sequence} delivered twice",
                        window=event.window))
                delivered.add(event.sequence)


__all__ = ["INVARIANTS", "Violation", "VerificationReport",
           "InvariantChecker"]
