"""Independent verification of the reproduction's trace-level claims.

The paper's guarantees — agreement and validity in every reachable
configuration, faults within the ``t`` budget, executions structured as
acceptable windows — are *trace* properties.  This package checks them as
such, independently of the engine's own summary bookkeeping:

* :mod:`repro.verification.invariants` — the
  :class:`~repro.verification.invariants.InvariantChecker` re-derives
  agreement, validity, decision stability, window acceptability, the
  fault and reset budgets and message causality from a recorded
  :class:`~repro.simulation.trace.ExecutionTrace`.
* :mod:`repro.verification.fuzzer` — seed-deterministic fuzz campaigns
  driving the :class:`~repro.adversaries.fuzzing.ScheduleFuzzer` /
  :class:`~repro.adversaries.fuzzing.StepFuzzer` adversaries through the
  parallel runner, with results persisted (and resumed) through the
  results store.  The CLI front end is ``python -m repro fuzz``.
* :mod:`repro.verification.shrink` — replays as ordinary trial specs,
  greedy delta-debugging minimization of violating schedules, and the
  one writer and reader of schedule artifacts.
* :mod:`repro.verification.differential` — compiles window executions
  into step schedules and replays them through single steps on a fresh
  engine, asserting a window is exactly its step compilation.
* :mod:`repro.verification.batched_diff` — replays sampled trials of
  every batched-backend run through the per-trial oracle and asserts
  bit-identical :class:`~repro.simulation.trace.ExecutionResult`\\ s.
  Import it from its module: it is also a ``python -m`` entry point, so
  the package does not import it eagerly.
"""

from repro.verification.differential import (DifferentialReport,
                                             differential_replay,
                                             replay_trace_on_step_engine)
from repro.verification.fuzzer import (FUZZ_EXPERIMENT, FuzzReport, fuzz_trial_spec,
                                       minimize_finding,
                                       resolve_fuzz_params,
                                       run_fuzz_campaign)
from repro.verification.invariants import (INVARIANTS, InvariantChecker,
                                           VerificationReport, Violation)
from repro.verification.shrink import (COUNTEREXAMPLE_DIR, ShrinkResult,
                                       load_schedule_artifact,
                                       replay_schedule, replay_spec,
                                       save_schedule_artifact,
                                       schedule_from_jsonable,
                                       schedule_to_jsonable,
                                       shrink_schedule)

__all__ = [
    "INVARIANTS",
    "InvariantChecker",
    "VerificationReport",
    "Violation",
    "FUZZ_EXPERIMENT",
    "COUNTEREXAMPLE_DIR",
    "FuzzReport",
    "fuzz_trial_spec",
    "resolve_fuzz_params",
    "run_fuzz_campaign",
    "minimize_finding",
    "ShrinkResult",
    "replay_spec",
    "replay_schedule",
    "shrink_schedule",
    "schedule_to_jsonable",
    "schedule_from_jsonable",
    "save_schedule_artifact",
    "load_schedule_artifact",
    "DifferentialReport",
    "differential_replay",
    "replay_trace_on_step_engine",
]
