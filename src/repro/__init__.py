"""repro: a reproduction of Lewko & Lewko (PODC 2013).

"On the Complexity of Asynchronous Agreement Against Powerful Adversaries"
introduces the strongly adaptive adversary (full-information asynchronous
scheduling plus adaptive *resetting* failures), shows that Ben-Or/Bracha
style threshold voting still achieves measure-one correctness and
termination against it (Theorem 4), and proves that the accompanying
exponential running time is unavoidable: any algorithm with measure-one
correctness and termination needs exponentially many acceptable windows
against the strongly adaptive adversary (Theorem 5), and the same holds in
message-chain length for forgetful, fully communicative algorithms against a
plain crash adversary (Theorem 17).

This package provides:

* :mod:`repro.simulation` — the asynchronous message-passing execution model
  (processors, channels, acceptable windows, step-level executions,
  configurations).
* :mod:`repro.core` — the paper's reset-tolerant algorithm, its threshold
  constraints, the Talagrand toolkit and the executable lower-bound
  machinery.
* :mod:`repro.protocols` — baseline protocols (Ben-Or, Bracha, committee
  election) the paper builds on or contrasts against.
* :mod:`repro.adversaries` — benign, crash, Byzantine, split-vote,
  adaptively resetting and lookahead adversaries.
* :mod:`repro.analysis` — product-measure tools and statistics.
* :mod:`repro.experiments` — the declarative experiment registry behind
  the EXPERIMENTS.md tables (E1–E9).
* :mod:`repro.results` — the persistent, resumable results store.
* :mod:`repro.verification` — the independent invariant checker, the
  adversarial schedule fuzzer, counterexample minimization, and the
  window-vs-step differential replayer.
* :mod:`repro.search` — guided adversary search: admissibility-preserving
  schedule optimization toward the paper's hardness objectives, with
  replayable best-schedule artifacts.
* :mod:`repro.cli` — the unified ``python -m repro`` / ``repro`` command
  line (``list`` / ``run`` / ``show`` / ``fuzz`` / ``search`` /
  ``replay``).
* :mod:`repro.runner` — the parallel Monte Carlo trial runner.
* :mod:`repro.workloads` — input assignments.

Quickstart::

    from repro import (ResetTolerantAgreement, BenignAdversary,
                       run_execution, max_tolerable_t)

    n = 24
    t = max_tolerable_t(n)
    result = run_execution(ResetTolerantAgreement, n=n, t=t,
                           inputs=[i % 2 for i in range(n)],
                           adversary=BenignAdversary(), max_windows=100,
                           seed=7)
    assert result.correct and result.all_live_decided
"""

import importlib
from typing import List

# Each public name and the subpackage that defines it.  ``import repro``
# loads none of them: a name's subpackage is imported on first access
# (PEP 562), so a command that never touches numpy-backed modules never
# pays for them.
_EXPORTS = {
    "repro.adversaries": (
        "AdaptiveResettingAdversary", "BenignAdversary",
        "ByzantineAdversary", "CrashAtDecisionAdversary",
        "CrashSplitVoteAdversary", "EquivocateStrategy",
        "FlipValueStrategy", "LookaheadAdversary",
        "RandomSchedulerAdversary", "SilencingAdversary", "SilentStrategy",
        "SplitVoteAdversary", "StaticCrashAdversary"),
    "repro.core": (
        "LowerBoundConstants", "ResetTolerantAgreement", "ThresholdConfig",
        "default_thresholds", "fast_decide_thresholds",
        "lower_bound_constants", "lower_bound_report", "max_tolerable_t",
        "predicted_lower_bound", "split_vote_analysis", "talagrand_bound"),
    "repro.protocols": (
        "BenOrAgreement", "BrachaAgreement", "CommitteeElectionProtocol",
        "ProtocolFactory", "available_protocols", "get_protocol"),
    "repro.simulation": (
        "Configuration", "ExecutionResult", "Message", "Engine",
        "WindowSpec", "run_execution"),
    "repro.verification": (
        "InvariantChecker", "VerificationReport", "differential_replay",
        "replay_schedule", "run_fuzz_campaign", "shrink_schedule"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__version__ = "1.2.0"

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
