"""Differential replay: a window execution vs its step compilation.

:meth:`~repro.simulation.engine.Engine.run_window` executes the paper's
acceptable-window model directly.  An acceptable window is, by Definition
1, just a particular arrangement of sending / receiving / resetting steps —
so any window execution can be *compiled* to a step schedule (crashes, then
the live processors' sending steps in identity order, then the recorded
deliveries in delivery order, then the resets) and replayed on a fresh
engine through :meth:`~repro.simulation.engine.Engine.apply_step` alone.
If the window policy arranges the steps the way Definition 1 says, the
replay must reproduce the exact same execution: same decisions, same
message counts, same resets.

:func:`differential_replay` runs that comparison for one trial
specification.  It is the reference check that a window equals its step
compilation, and the semantic anchor for the fuzz campaign: a violation
that reproduces step by step cannot be an artifact of the window policy's
batching.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.runner.spec import (WINDOW_ENGINE, TrialSpec, build_engine,
                               execute_trial)
from repro.simulation.events import Step
from repro.simulation.trace import ExecutionResult, ExecutionTrace


@dataclass
class DifferentialReport:
    """The outcome of one window-vs-step differential replay.

    Attributes:
        n: number of processors.
        t: fault bound.
        windows: how many windows the window execution ran.
        agree: whether the step replay reproduced the window execution.
        mismatches: human-readable descriptions of every divergence.
        window_outputs: the window execution's final output bits.
        step_outputs: the step replay's final output bits.
    """

    n: int
    t: int
    windows: int
    agree: bool
    mismatches: List[str] = field(default_factory=list)
    window_outputs: Tuple[Optional[int], ...] = ()
    step_outputs: Tuple[Optional[int], ...] = ()


def replay_trace_on_step_engine(spec: TrialSpec,
                                trace: ExecutionTrace) -> ExecutionResult:
    """Re-execute a window trace step by step on a fresh engine.

    The network stamps sequence numbers in submission order and the
    compiled schedule preserves the window's submission order, so the
    trace's delivery events can be re-issued by sequence number.
    """
    engine = build_engine(replace(spec, record_trace=True,
                                  record_configurations=False))
    crashed = set()
    deliveries = trace.deliveries_by_window()
    for window, window_spec in enumerate(trace.windows):
        for pid in sorted(window_spec.crashes):
            if pid not in crashed:
                crashed.add(pid)
                engine.apply_step(Step.crash(pid))
        for pid in range(trace.n):
            if pid not in crashed:
                engine.apply_step(Step.send(pid))
        for event in deliveries[window]:
            message = engine.network.find_pending(event.sequence)
            if message is None:
                raise LookupError(
                    f"window {window}: delivery of sequence "
                    f"{event.sequence} has no pending counterpart in the "
                    f"step replay (engines diverged earlier)")
            engine.apply_step(Step.receive(message))
        for pid in sorted(window_spec.resets):
            if pid not in crashed:
                engine.apply_step(Step.reset(pid))
    return engine.result()


def differential_replay(spec: TrialSpec) -> DifferentialReport:
    """Run one window trial, replay its step compilation, compare.

    Args:
        spec: a window trial specification (``engine="window"``).

    Raises:
        ValueError: when the spec schedules steps (there is no canonical
            reverse compilation).
    """
    if spec.engine != WINDOW_ENGINE:
        raise ValueError("differential replay needs a window-engine spec, "
                         f"got engine={spec.engine!r}")
    window_result = execute_trial(replace(spec, record_trace=True,
                                          record_configurations=False))
    assert window_result.trace is not None
    report = DifferentialReport(
        n=spec.n, t=spec.t, windows=window_result.windows_elapsed,
        agree=True, window_outputs=window_result.outputs)
    try:
        step_result = replay_trace_on_step_engine(spec, window_result.trace)
    except LookupError as error:
        report.agree = False
        report.mismatches.append(str(error))
        return report
    report.step_outputs = step_result.outputs
    for label, window_value, step_value in (
            ("outputs", window_result.outputs, step_result.outputs),
            ("crashed", window_result.crashed, step_result.crashed),
            ("messages_sent", window_result.messages_sent,
             step_result.messages_sent),
            ("messages_delivered", window_result.messages_delivered,
             step_result.messages_delivered),
            ("total_resets", window_result.total_resets,
             step_result.total_resets),
            ("total_coin_flips", window_result.total_coin_flips,
             step_result.total_coin_flips)):
        if window_value != step_value:
            report.agree = False
            report.mismatches.append(
                f"{label}: window run {window_value!r} "
                f"vs step replay {step_value!r}")
    return report


__all__ = ["DifferentialReport", "differential_replay",
           "replay_trace_on_step_engine"]
