"""Trial-level parallel execution for the Monte Carlo experiments.

The paper's headline numbers are estimates over many independent
adversarial executions.  This package turns each execution into a picklable
:class:`~repro.runner.spec.TrialSpec`, runs batches of specs through one
executor (:class:`~repro.runner.supervisor.SupervisedRunner`: chunks of
per-trial specs or whole batched groups, fanned out across worker
processes under a retry/quarantine ladder, with a bit-identical serial
path at ``workers=0``), and reduces each experiment cell's results
(:mod:`repro.runner.aggregate`).

See ``PERFORMANCE.md`` at the repository root for the usage guide.
"""

from repro.runner.aggregate import (correctness_flags, measure,
                                    message_chain_length,
                                    undecided_windows,
                                    windows_to_first_decision)
from repro.runner.health import (RunHealth, TrialFailure,
                                 empty_health_block, merge_health_block)
from repro.runner.parallel import default_workers, iter_trials, run_trials
from repro.runner.spec import (STEP_ENGINE, WINDOW_ENGINE, TrialSpec,
                               derive_seed, execute_trial)
from repro.runner.supervisor import (ExecutionPolicy, Reducer,
                                     RetryPolicy, SupervisedRunner)

__all__ = [
    "TrialSpec",
    "execute_trial",
    "derive_seed",
    "WINDOW_ENGINE",
    "STEP_ENGINE",
    "SupervisedRunner",
    "ExecutionPolicy",
    "RetryPolicy",
    "Reducer",
    "RunHealth",
    "TrialFailure",
    "empty_health_block",
    "merge_health_block",
    "run_trials",
    "iter_trials",
    "default_workers",
    "measure",
    "windows_to_first_decision",
    "undecided_windows",
    "message_chain_length",
    "correctness_flags",
]
