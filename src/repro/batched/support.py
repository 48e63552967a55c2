"""Capability gating and batch grouping for the vectorized backend.

The batched engine (:mod:`repro.batched.engine`) vectorizes exactly the
traffic behind the paper's Section 3 result: the reset-tolerant protocol
under the benign, silencing, split-vote and adaptive-resetting
adversaries (the E1/E2/E7/E9 workloads).  Everything else keeps flowing
through the per-trial engines, which remain the bit-identity oracle.
This module is the single place where that boundary is defined, from
each spec's own fields and the oracle's own rules:

* :func:`unsupported_reason` — ``None`` when a spec is vectorizable, else
  a short human-readable reason (counted as `fallback_reason:<reason>`).
* :func:`batch_signature` — the grouping key: specs with equal signatures
  share one :class:`~repro.batched.engine.BatchedWindowEngine` run, one
  trial or many.
* :func:`group_specs` — the one grouping rule: the batched groups, the
  per-trial remainder and the fallback reasons of a spec list.  The
  executor dispatches exactly these groups and the differential harness
  checks exactly these groups.
* :func:`resolve_backend` — validates the CLI/TrialSpec backend names
  (``trial`` / ``batched``).

The support checks are deliberately conservative: whenever the per-trial
oracle would *raise* for a spec (invalid thresholds, oversized silenced
set, invalid reset fraction), the spec is declared unsupported so the
per-trial path reproduces the exact failure instead of the batch engine
having to emulate exception timing.  Thresholds resolve through the
protocol's own :func:`~repro.core.thresholds.resolve_thresholds`, so the
gate and the oracle cannot disagree about them.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.thresholds import resolve_thresholds
from repro.runner.spec import TrialSpec

BACKEND_TRIAL = "trial"
BACKEND_BATCHED = "batched"
BACKENDS = (BACKEND_TRIAL, BACKEND_BATCHED)

_RT_KWARGS = frozenset({"thresholds", "validate_thresholds"})
_SPLIT_KWARGS = frozenset({"block_threshold", "seed"})
_ADAPTIVE_KWARGS = frozenset({"block_threshold", "seed", "reset_fraction"})


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
        resolve_thresholds(spec.n, spec.t, **spec.protocol_kwargs)
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
    thresholds = resolve_thresholds(spec.n, spec.t, **spec.protocol_kwargs)
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
    :func:`unsupported_reason` gates each spec and
    :func:`batch_signature` groups the rest."""
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
    return BatchPlan(list(by_signature.items()), per_trial, reasons)


def resolve_backend(backend: Optional[str]) -> str:
    """The backend name ``backend`` requests (``None`` means ``trial``)."""
    if backend is None:
        return BACKEND_TRIAL
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


__all__ = [
    "BACKENDS",
    "BACKEND_BATCHED",
    "BACKEND_TRIAL",
    "BatchPlan",
    "batch_signature",
    "group_specs",
    "resolve_backend",
    "unsupported_reason",
]
