"""Capability gating and batch grouping for the vectorized backend.

The batched engine (:mod:`repro.batched.engine`) vectorizes exactly the
traffic behind the paper's Section 3 result: the reset-tolerant protocol
under the benign, silencing, split-vote and adaptive-resetting
adversaries (the E1/E2/E7/E9 workloads).  Everything else keeps flowing
through the per-trial engines, which remain the bit-identity oracle.
This module is the single place where that boundary is defined:

* :func:`numpy_ok` — whether numpy provides ``np.bitwise_count``
  (numpy >= 2.0); without it every spec reports unsupported and the
  runner degrades to the per-trial path.
* :func:`unsupported_reason` — ``None`` when a spec is vectorizable, else
  a short human-readable reason (counted as `fallback_reason:<reason>`).
* :func:`batch_signature` — the grouping key: specs with equal signatures
  share one :class:`~repro.batched.engine.BatchedWindowEngine` run.
* :func:`group_specs` — the one grouping rule: the batched groups, the
  per-trial remainder and the fallback reasons of a spec list.  The
  executor dispatches exactly these groups and the differential harness
  checks exactly these groups.
* :func:`resolve_backend` — maps the CLI/TrialSpec backend names
  (``trial`` / ``batched``) to the backend actually used.

The support checks are deliberately conservative: whenever the per-trial
oracle would *raise* for a spec (invalid thresholds, oversized silenced
set, invalid reset fraction), the spec is declared unsupported so the
per-trial path reproduces the exact failure instead of the batch engine
having to emulate exception timing.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.thresholds import ThresholdConfig, default_thresholds
from repro.runner.spec import TrialSpec

BACKEND_TRIAL = "trial"
BACKEND_BATCHED = "batched"
BACKENDS = (BACKEND_TRIAL, BACKEND_BATCHED)

MIN_BATCH = 2
"""Smallest group worth building array state for; singletons fall back."""

_RT_KWARGS = frozenset({"thresholds", "validate_thresholds"})
_SPLIT_KWARGS = frozenset({"block_threshold", "seed"})
_ADAPTIVE_KWARGS = frozenset({"block_threshold", "seed", "reset_fraction"})


def numpy_ok() -> bool:
    """Whether the vector backend's numpy requirements are met."""
    return hasattr(np, "bitwise_count")


def effective_thresholds(spec: TrialSpec) -> ThresholdConfig:
    """The (T1, T2, T3) a reset-tolerant trial will actually run with.

    Mirrors ``ResetTolerantAgreement.__init__`` exactly; raises whatever
    it would raise (the caller treats any raise as "fall back, let the
    oracle fail").
    """
    kwargs = dict(spec.protocol_kwargs)
    thresholds = kwargs.get("thresholds")
    if thresholds is None:
        return default_thresholds(spec.n, spec.t)
    if not isinstance(thresholds, ThresholdConfig):
        raise TypeError("thresholds must be a ThresholdConfig")
    if kwargs.get("validate_thresholds", True):
        thresholds.require_valid()
    return thresholds


def _adversary_reason(spec: TrialSpec) -> Optional[str]:
    """Adversary-side support check (``None`` when vectorizable)."""
    kwargs: Dict[str, Any] = dict(spec.adversary_kwargs)
    adversary = spec.adversary
    if adversary == "benign":
        if kwargs:
            return "benign adversary takes no kwargs"
        return None
    if adversary == "silencing":
        if set(kwargs) - {"silenced"}:
            return "unsupported silencing kwargs"
        silenced = kwargs.get("silenced")
        if silenced is not None and len(frozenset(silenced)) > spec.t:
            return "oversized silenced set (oracle raises)"
        return None
    if adversary in ("split-vote", "adaptive-resetting"):
        allowed = (_ADAPTIVE_KWARGS if adversary == "adaptive-resetting"
                   else _SPLIT_KWARGS)
        if set(kwargs) - allowed:
            return f"unsupported {adversary} kwargs"
        if kwargs.get("seed") is None:
            # An unseeded adversary draws from the shared fallback stream,
            # whose order of consumption a batch cannot reproduce.
            return "unseeded adversary (shared fallback stream)"
        threshold = kwargs.get("block_threshold")
        if threshold is not None and not isinstance(threshold, int):
            return "non-integer block_threshold"
        if adversary == "adaptive-resetting":
            fraction = kwargs.get("reset_fraction", 1.0)
            if not isinstance(fraction, (int, float)) or \
                    not 0.0 <= fraction <= 1.0:
                return "invalid reset_fraction (oracle raises)"
        return None
    return f"adversary {adversary!r} not vectorized"


def unsupported_reason(spec: TrialSpec) -> Optional[str]:
    """Why ``spec`` cannot run on the batched engine (``None`` if it can)."""
    if not numpy_ok():
        return "numpy >= 2.0 unavailable"
    if spec.engine != "window":
        return "step engine"
    if spec.record_trace:
        return "trace recording"
    if spec.record_configurations:
        return "configuration recording"
    if spec.seed is None:
        # Unseeded trials draw processor RNGs from the shared fallback
        # stream; batching would reorder those draws.
        return "unseeded trial (shared fallback stream)"
    if spec.protocol != "reset-tolerant":
        return f"protocol {spec.protocol!r} not vectorized"
    if set(spec.protocol_kwargs) - _RT_KWARGS:
        return "unsupported protocol kwargs"
    try:
        effective_thresholds(spec)
    except Exception:
        return "invalid thresholds (oracle raises)"
    return _adversary_reason(spec)


def batch_signature(spec: TrialSpec) -> Tuple[Any, ...]:
    """The grouping key for one batched-engine run.

    Trials in one batch must share the thresholds (they become scalars in
    the engine) and the stop rule; seeds, inputs, window caps and
    per-trial adversary kwargs may all differ.  Only call on specs
    :func:`unsupported_reason` accepted.
    """
    thresholds = effective_thresholds(spec)
    return (spec.protocol, (thresholds.t1, thresholds.t2, thresholds.t3),
            spec.adversary, spec.n, spec.t, spec.stop_when)


class BatchPlan(NamedTuple):
    """``groups``: ``(signature, member indices)`` per batched group, in
    order of first member; ``per_trial``: every other index, ascending;
    ``reasons``: fallback reason -> specs it sent per-trial."""

    groups: List[Tuple[Tuple[Any, ...], List[int]]]
    per_trial: List[int]
    reasons: Counter


def group_specs(specs: Sequence[TrialSpec]) -> BatchPlan:
    """Split ``specs`` into batched groups and per-trial fallbacks:
    :func:`unsupported_reason` gates each spec, :func:`batch_signature`
    groups the rest, and groups under :data:`MIN_BATCH` fall back."""
    reasons: Counter = Counter()
    per_trial: List[int] = []
    by_signature: Dict[Tuple[Any, ...], List[int]] = {}
    for index, spec in enumerate(specs):
        reason = unsupported_reason(spec)
        if reason is None:
            by_signature.setdefault(batch_signature(spec), []).append(index)
        else:
            reasons[reason] += 1
            per_trial.append(index)
    groups = []
    for signature, members in by_signature.items():
        if len(members) < MIN_BATCH:
            reasons[f"batch smaller than {MIN_BATCH}"] += len(members)
            per_trial.extend(members)
        else:
            groups.append((signature, members))
    return BatchPlan(groups, sorted(per_trial), reasons)


def resolve_backend(backend: Optional[str]) -> str:
    """Map a requested backend name to the backend actually used.

    ``batched`` without numpy degrades to ``trial`` (every spec would
    take the per-trial path anyway).
    """
    if backend is None:
        return BACKEND_TRIAL
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend == BACKEND_TRIAL:
        return BACKEND_TRIAL
    return BACKEND_BATCHED if numpy_ok() else BACKEND_TRIAL


__all__ = [
    "BACKENDS",
    "BACKEND_BATCHED",
    "BACKEND_TRIAL",
    "MIN_BATCH",
    "BatchPlan",
    "batch_signature",
    "effective_thresholds",
    "group_specs",
    "numpy_ok",
    "resolve_backend",
    "unsupported_reason",
]
