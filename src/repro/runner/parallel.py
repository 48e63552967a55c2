"""Entry points and process plumbing of the trial executor.

:func:`run_trials` / :func:`iter_trials` execute a list of
:class:`~repro.runner.spec.TrialSpec` through the one executor,
:class:`~repro.runner.supervisor.SupervisedRunner`, preserving submission
order.  Because every trial is fully described by its spec (all
randomness is seeded explicitly), any worker count yields results
bit-identical to the serial path (``workers=0``) — worker count affects
wall-clock time only, never values.

Worker pools prefer the ``fork`` start method when the platform offers
it: forked workers inherit ``sys.path``, so the runner works under test
setups that configure the import path in-process rather than via
``PYTHONPATH``.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import (Any, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.runner.spec import TrialSpec

_WORKERS_ENV = "REPRO_WORKERS"

#: A worker-timed execution: ``(result_or_failure, t0_epoch, duration)``.
#: Worker entry points return these so the supervising process can emit
#: trial spans without a second clock read across the process boundary.
TimedResult = Tuple[Any, float, float]


def default_workers() -> int:
    """Worker-count default: ``$REPRO_WORKERS`` if set, else the CPU count."""
    value = os.environ.get(_WORKERS_ENV)
    if value is not None:
        try:
            workers = int(value)
        except ValueError:
            raise ValueError(
                f"{_WORKERS_ENV} must be a non-negative integer, "
                f"got {value!r}") from None
        if workers < 0:
            raise ValueError(f"{_WORKERS_ENV} must be >= 0, got {workers}")
        return workers
    return os.cpu_count() or 1


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def run_trials(specs: Iterable[TrialSpec],
               workers: Optional[int] = None,
               policy=None, health=None,
               backend: Optional[str] = None,
               telemetry: Optional[Any] = None) -> List[Any]:
    """Execute ``specs`` and return one item per spec, in order.

    Builds a :class:`~repro.runner.supervisor.SupervisedRunner`; a
    missing ``policy`` means the default retry ladder and no chaos.
    ``backend`` (``batched`` by default, or ``trial``) picks the chunk
    kinds; ``telemetry`` attaches a span/metric recorder.  Results are
    bit-identical across backends, worker counts and telemetry.
    """
    return list(iter_trials(specs, workers=workers, policy=policy,
                            health=health, backend=backend,
                            telemetry=telemetry))


def iter_trials(specs: Iterable[TrialSpec],
                workers: Optional[int] = None,
                policy=None, health=None,
                backend: Optional[str] = None,
                telemetry: Optional[Any] = None,
                reducers: Optional[Sequence[Any]] = None) -> Iterator[Any]:
    """Like :func:`run_trials`, but stream results in submission order,
    each through its spec's entry of ``reducers`` (see
    :meth:`~repro.runner.supervisor.SupervisedRunner.iter_results`)."""
    # Imported lazily: the supervisor builds on this module.
    from repro.runner.supervisor import SupervisedRunner
    return SupervisedRunner(workers=workers, policy=policy, health=health,
                            backend=backend,
                            telemetry=telemetry).iter_results(specs,
                                                              reducers)


__all__ = ["run_trials", "iter_trials", "default_workers"]
