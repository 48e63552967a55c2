"""Vectorized batched trial execution (numpy >= 2.0, oracle-checked).

This package holds the ``batched`` execution backend: many trials of one
experiment cell run inside a single process with per-processor state laid
out as numpy arrays over ``trials x processors``.  It vectorizes one
protocol, ``reset-tolerant``, under four window adversaries (``benign``,
``silencing``, ``split-vote``, ``adaptive-resetting``): the traffic of the
E1/E2/E7/E9 experiments.  Every other spec runs per trial.  The
per-trial engines in :mod:`repro.simulation` remain the semantic ground
truth — every result produced here is required to be bit-identical to
what :func:`repro.runner.spec.execute_trial` returns for the same spec,
and :mod:`repro.verification.batched_diff` re-checks that on sampled
subsets of real runs.

Import surface:

* :mod:`~repro.batched.support` — capability gating
  (:func:`~repro.batched.support.unsupported_reason`), the one grouping
  rule (:func:`~repro.batched.support.group_specs`, which batches groups
  of any size, one trial included) and backend name validation
  (:func:`~repro.batched.support.resolve_backend`).
* :class:`~repro.batched.engine.BatchedWindowEngine` — the vectorized
  engine, and :func:`~repro.batched.engine.run_group`, which
  :class:`~repro.runner.supervisor.SupervisedRunner` runs for each
  batched chunk.  The runner imports the engine only when a batched
  chunk actually runs.
"""

from repro.batched.support import (
    BACKEND_BATCHED,
    BACKEND_TRIAL,
    BACKENDS,
    batch_signature,
    group_specs,
    resolve_backend,
    unsupported_reason,
)

__all__ = [
    "BACKENDS",
    "BACKEND_BATCHED",
    "BACKEND_TRIAL",
    "batch_signature",
    "group_specs",
    "resolve_backend",
    "unsupported_reason",
]
