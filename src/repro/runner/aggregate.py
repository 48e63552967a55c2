"""Result aggregation: per-trial metrics and per-cell reductions.

An experiment cell (:class:`~repro.experiments.base.Cell`) receives its
own trials' results, in spec order, from
:func:`~repro.experiments.base.run_cells`; its row builder reduces them
with these helpers — a per-execution metric mapped over the cell
(:func:`measure`) and fed to
:func:`repro.analysis.statistics.summarize_trials`, or the cell's
correctness flags (:func:`correctness_flags`).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Tuple

from repro.simulation.trace import ExecutionResult


def measure(results: Iterable[ExecutionResult],
            metric: Callable[[ExecutionResult], float]) -> List[float]:
    """Apply a per-execution metric to every result of a cell."""
    return [metric(result) for result in results]


def windows_to_first_decision(result: ExecutionResult) -> float:
    """The paper's running-time measure, with the window cap as fallback.

    Executions that never decided within the cap report the number of
    windows they survived, matching the serial experiment code's
    ``first_decision_window or windows_elapsed`` convention.
    """
    return float(result.first_decision_window or result.windows_elapsed)


def undecided_windows(result: ExecutionResult) -> float:
    """Acceptable windows that fully elapsed with no processor decided.

    This is the adversary's score in the hardness experiments (E9) and the
    default objective of :mod:`repro.search`: the window of the first
    decision does not count (the adversary failed to keep it undecided),
    while an execution that exhausted its window cap undecided scores every
    window it survived.
    """
    if result.first_decision_window is None:
        return float(result.windows_elapsed)
    return float(result.first_decision_window - 1)


def message_chain_length(result: ExecutionResult) -> float:
    """Deciding message-chain length, falling back to windows elapsed."""
    chain = result.message_chain_length
    if chain is None:
        chain = result.windows_elapsed
    return float(chain)


def correctness_flags(results: Iterable[ExecutionResult]
                      ) -> Tuple[bool, bool, bool]:
    """(agreement, validity, all-live-terminated) ANDed across a cell."""
    agreement_ok = True
    validity_ok = True
    terminated = True
    for result in results:
        agreement_ok &= result.agreement_ok
        validity_ok &= result.validity_ok
        terminated &= result.all_live_decided
    return agreement_ok, validity_ok, terminated


__all__ = [
    "measure",
    "windows_to_first_decision",
    "undecided_windows",
    "message_chain_length",
    "correctness_flags",
]
