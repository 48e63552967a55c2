"""The trial executor: chunked dispatch under a recovery ladder.

:class:`SupervisedRunner` is the one executor.  A chunk is a run of
per-trial specs or (on the default ``batched`` backend) one whole group
of :func:`~repro.batched.support.group_specs`, and every chunk goes through
the recovery ladder a long campaign needs to survive real (or injected)
faults:

1. **Per-chunk retries** — a chunk whose worker raised is resubmitted,
   with deterministic exponential backoff, up to
   :class:`RetryPolicy.max_retries` times.
2. **Pool rebuilds** — a ``BrokenProcessPool`` (a worker died mid-chunk)
   tears the pool down, builds a fresh one, and re-dispatches only the
   chunks that have not finished; completed results are never recomputed.
3. **Watchdog timeouts** — with a per-trial wall-clock budget set, a
   window in which *no* chunk completes is treated as a hang: the worker
   processes are terminated, the pool is rebuilt, and the in-flight
   chunks count a retry.
4. **Serial quarantine** — a chunk that exhausts its retry budget is
   re-executed spec by spec on the per-trial oracle in the supervising
   process, isolating the poison trial: its innocent neighbours still
   produce results, and the poison trial itself becomes a
   :class:`~repro.runner.health.TrialFailure` recorded in
   :class:`~repro.runner.health.RunHealth` instead of a dead run.  A
   batched group whose engine keeps raising degrades the same way.

At ``workers=0`` the same chunks run lazily in-process through a serial
retry loop (injected crashes and hangs degrade to recorded raised faults
— see :mod:`repro.faults.injector`).

Because retries re-execute *deterministic* specs, every recovered result
is bit-identical to what a fault-free run would have produced: the
supervisor changes wall-clock time and the health counters, never values.
The executor yields exactly one item per submitted spec, in submission
order — an ``ExecutionResult`` (or what the spec's reducer made of it),
or a ``TrialFailure`` for specs it gave up on — as soon as the chunks
holding it and every earlier spec resolve.  A per-trial reducer runs
right after its trial, wherever the trial ran (a worker, the serial
loop or quarantine), so a result too large to ship, such as a recorded
trace, can be boiled down before it crosses the pool.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

from repro.faults.injector import (QUARANTINE_SCOPE, SERIAL_SCOPE,
                                   WORKER_SCOPE, ChaosConfig, FaultInjector,
                                   build_injector)
from repro.runner.health import RunHealth, TrialFailure
from repro.runner.parallel import TimedResult, _mp_context, default_workers
from repro.runner.spec import TrialSpec, execute_trial


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    Attributes:
        max_retries: how many times a failed chunk/trial is re-executed
            before falling through to quarantine (chunks) or a recorded
            failure (trials).  ``0`` disables retries.
        backoff_seconds: base delay before the first retry.
        backoff_cap_seconds: upper bound on any single delay.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_cap_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_seconds < 0 or self.backoff_cap_seconds < 0:
            raise ValueError("backoff delays must be >= 0")

    def delay(self, attempt: int) -> float:
        """The backoff before (1-based) retry ``attempt``."""
        return min(self.backoff_cap_seconds,
                   self.backoff_seconds * (2 ** max(0, attempt - 1)))


@dataclass(frozen=True)
class ExecutionPolicy:
    """Everything the supervising executor is allowed (and told) to do.

    Attributes:
        retry: the chunk/trial retry budget and backoff.
        trial_timeout: per-trial wall-clock budget in seconds; the
            watchdog window for a chunk is ``trial_timeout * len(chunk)``.
            ``None`` disables the watchdog (a hung worker then hangs the
            run — set a budget for chaos runs that inject hangs).
        chaos: the fault pattern to inject (``None`` = no injection).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    trial_timeout: Optional[float] = None
    chaos: Optional[ChaosConfig] = None

    def __post_init__(self) -> None:
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise ValueError(
                f"trial_timeout must be positive, got {self.trial_timeout}")
        if self.chaos is not None and self.chaos.hang > 0 and \
                self.trial_timeout is None:
            raise ValueError(
                "chaos hang injection needs a trial timeout "
                "(--trial-timeout), or hung workers would hang the run")


#: A per-trial reducer ``reduce(spec, result)``, applied where the trial
#: ran.  It crosses the pool with its chunk, so it must pickle: a
#: module-level function or a ``functools.partial`` of one.
Reducer = Callable[[TrialSpec, Any], Any]


class _Chunk(NamedTuple):
    """Submission positions, specs and per-spec reducers (``None`` keeps
    the result) of one chunk; ``signature`` is set exactly when the chunk
    is a batched group."""

    indices: Tuple[int, ...]
    specs: Tuple[TrialSpec, ...]
    reducers: Tuple[Optional[Reducer], ...]
    signature: Optional[Tuple[Any, ...]] = None

    @property
    def batched(self) -> bool:
        return self.signature is not None


class BatchOutcome(NamedTuple):
    """A batched chunk's results plus its own timing: ``stats`` holds the
    engine's seconds per window phase, its window counts and the members
    it ``quarantined`` (re-run on the oracle mid-batch), keyed by their
    ``batch`` span field names."""

    results: List[Any]
    t0: float
    duration: float
    stats: Dict[str, float]


def _execute_chunk_guarded(chunk: _Chunk,
                           injector: Optional[FaultInjector],
                           attempt: int, scope: str = WORKER_SCOPE) -> Any:
    """Entry point for one chunk, in a worker or in-process.

    A per-trial chunk returns one ``(result, t0, duration)`` triple per
    spec, timed where it ran.  A batched chunk fires every member's fault
    for this attempt, runs the group on the vectorized engine and
    returns a :class:`BatchOutcome`.  Either way each result has been
    through its spec's reducer, inside the timing.
    """
    if chunk.batched:
        from repro.batched.engine import run_group

        t0 = time.time()
        start = time.perf_counter()
        if injector is not None:
            for spec in chunk.specs:
                injector.fire(spec, attempt, scope)
        results, stats = run_group(chunk.specs)
        results = [result if reduce is None else reduce(spec, result)
                   for spec, reduce, result
                   in zip(chunk.specs, chunk.reducers, results)]
        return BatchOutcome(results, t0, time.perf_counter() - start,
                            stats)
    timed: List[TimedResult] = []
    for spec, reduce in zip(chunk.specs, chunk.reducers):
        t0 = time.time()
        start = time.perf_counter()
        if injector is None:
            result = execute_trial(spec)
        else:
            result = injector.apply(spec, attempt, scope)
        if reduce is not None:
            result = reduce(spec, result)
        timed.append((result, t0, time.perf_counter() - start))
    return timed


class SupervisedRunner:
    """Executes trial specs in chunks under the full recovery ladder.

    Args:
        workers: worker processes; ``0`` runs serially in-process,
            ``None`` means :func:`~repro.runner.parallel.default_workers`.
        policy: retry/watchdog/chaos configuration
            (default: :class:`ExecutionPolicy`'s defaults — 2 retries,
            no watchdog, no chaos).
        health: the :class:`RunHealth` ledger to record recovery actions
            into (default: a fresh one, exposed as ``self.health``).
        backend: ``batched`` (the default: every group the batched
            engine admits runs batched, the rest per trial) or ``trial``
            (every spec on the per-trial oracle); see
            :func:`~repro.batched.support.resolve_backend`.
        telemetry: an optional :class:`~repro.telemetry.Telemetry`
            recorder for worker-timed ``chunk``/``trial``/``batch`` spans,
            recovery and routing counters, and in-flight gauges.  Never
            read by trial execution — results are bit-identical either way.
    """

    def __init__(self, workers: Optional[int] = None,
                 policy: Optional[ExecutionPolicy] = None,
                 health: Optional[RunHealth] = None,
                 backend: Optional[str] = None,
                 telemetry: Optional[Any] = None) -> None:
        # Imported lazily: repro.batched builds on this package.
        from repro.batched.support import resolve_backend

        self.workers = default_workers() if workers is None else workers
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.health = health if health is not None else RunHealth()
        self.injector = build_injector(self.policy.chaos)
        self.backend = resolve_backend(backend)
        self.telemetry = telemetry

    def _count(self, name: str, delta: int = 1) -> None:
        """Mirror a recovery action into the telemetry counters."""
        if self.telemetry is not None:
            self.telemetry.count(name, delta)

    def _gauge(self, name: str, value: Any) -> None:
        if self.telemetry is not None:
            self.telemetry.gauge(name, value)

    def iter_results(self, specs: Iterable[TrialSpec],
                     reducers: Optional[Sequence[Optional[Reducer]]] = None
                     ) -> Iterator[Any]:
        """Execute every spec, yielding one item per spec in order.

        Items are ``ExecutionResult``s, or :class:`TrialFailure` for
        specs whose execution kept failing through every recovery rung.
        ``reducers``, aligned with ``specs``, maps a spec's result to
        ``reduce(spec, result)`` where the trial ran; ``None`` (for the
        whole batch or one spec) keeps the result as it is.
        """
        spec_list = list(specs)
        chunks = self._chunk_specs(
            spec_list,
            [None] * len(spec_list) if reducers is None else list(reducers))
        workers = min(self.workers, len(chunks))
        if workers <= 0 or len(spec_list) == 1:
            resolutions: Iterator[Tuple[int, Any, str]] = (
                (index, self._run_serial(chunk, SERIAL_SCOPE), SERIAL_SCOPE)
                for index, chunk in enumerate(chunks))
        else:
            resolutions = self._supervise(chunks, workers)
        owner = [0] * len(spec_list)
        for index, chunk in enumerate(chunks):
            for position in chunk.indices:
                owner[position] = index
        resolved: Dict[int, Tuple[Any, str]] = {}
        ready: Dict[int, Any] = {}
        try:
            for position in range(len(spec_list)):
                if position not in ready:
                    # First spec of its chunk: wait for the chunk, then
                    # record it under whatever span the consumer has open.
                    index = owner[position]
                    while index not in resolved:
                        done, outcome, scope = next(resolutions)
                        resolved[done] = (outcome, scope)
                    chunk = chunks[index]
                    ready.update(zip(chunk.indices, self._emit_chunk(
                        chunk, *resolved.pop(index))))
                yield ready.pop(position)
        finally:
            resolutions.close()

    def _chunk_specs(self, spec_list: List[TrialSpec],
                     reducers: List[Optional[Reducer]]) -> List[_Chunk]:
        """Split a batch into chunks, ordered by first submission index.

        Each batched group is one chunk.  Per-trial specs go in runs of
        ``ceil(len / (workers * 4))`` (several per worker, for load
        balancing without drowning in pickling), singletons at
        ``workers=0``.
        """
        from repro.batched.support import BACKEND_BATCHED, group_specs

        chunks: List[_Chunk] = []
        per_trial = list(range(len(spec_list)))
        if self.backend == BACKEND_BATCHED:
            plan = group_specs(spec_list)
            per_trial = plan.per_trial
            chunks = [_Chunk(tuple(members),
                             tuple(spec_list[i] for i in members),
                             tuple(reducers[i] for i in members), signature)
                      for signature, members in plan.groups]
            self._count("trials_fallback", len(per_trial))
            for reason, total in plan.reasons.items():
                self._count(f"fallback_reason:{reason}", total)
        workers = max(1, min(self.workers, len(per_trial)))
        size = 1 if self.workers == 0 else max(
            1, math.ceil(len(per_trial) / (workers * 4)))
        for start in range(0, len(per_trial), size):
            members = per_trial[start:start + size]
            chunks.append(_Chunk(tuple(members),
                                 tuple(spec_list[i] for i in members),
                                 tuple(reducers[i] for i in members)))
        chunks.sort(key=lambda chunk: chunk.indices[0])
        return chunks

    def _emit_chunk(self, chunk: _Chunk, outcome: Any,
                    scope: str) -> List[Any]:
        """Record one chunk's spans/counters and return its bare results.

        A batched chunk becomes one ``batch`` span carrying the engine's
        phase seconds (``deliver_s``, ``tally_s``, ``decide_s``) and its
        counts (``windows``, ``skipped_windows`` and the trials it
        ``quarantined``).  A
        multi-trial per-trial chunk becomes a ``chunk`` span (worker
        busy-time) parenting one ``trial`` span per spec; a singleton
        records just the trial span.  Spans nest under whatever span the
        consumer has open.
        """
        telemetry = self.telemetry
        if isinstance(outcome, BatchOutcome):
            if telemetry is None:
                return outcome.results
            trials = len(chunk.specs)
            quarantined = int(outcome.stats["quarantined"])
            telemetry.record_span(
                "batch", outcome.t0, outcome.duration, trials=trials,
                signature=[str(part) for part in chunk.signature],
                scope=scope, **outcome.stats)
            telemetry.count("trials_batched", trials - quarantined)
            telemetry.count("trials_completed", trials)
            for name in ("quarantined_mid_batch", "trials_fallback",
                         "fallback_reason:quarantined mid-batch"):
                telemetry.count(name, quarantined)
            return outcome.results
        if telemetry is not None and outcome:
            parent = telemetry.current_span
            if len(outcome) > 1:
                parent = telemetry.record_span(
                    "chunk",
                    min(entry[1] for entry in outcome),
                    sum(entry[2] for entry in outcome),
                    trials=len(outcome), scope=scope)
            for spec, (result, t0, duration) in zip(chunk.specs, outcome):
                telemetry.record_span(
                    "trial", t0, duration, parent=parent, tag=spec.tag,
                    scope=scope, ok=not isinstance(result, TrialFailure))
            telemetry.count("trials_completed", len(outcome))
        return [result for result, _, _ in outcome]

    # -- serial / quarantine path --------------------------------------
    def _run_serial(self, chunk: _Chunk, scope: str,
                    base_attempt: int = 0) -> Any:
        """One chunk through the in-process retry loop of ``scope``.

        Quarantine gets a single shot: its chunk already spent the whole
        retry budget, so a failure there is final.  An exhausted batched
        chunk is quarantined spec by spec; an exhausted per-trial chunk
        (always a singleton here) becomes a :class:`TrialFailure` timed
        over its final attempt only.
        """
        rounds = 1 if scope == QUARANTINE_SCOPE \
            else self.policy.retry.max_retries + 1
        attempt = base_attempt
        last_error: Optional[BaseException] = None
        t0 = duration = 0.0
        for round_index in range(rounds):
            t0 = time.time()
            start = time.perf_counter()
            try:
                return _execute_chunk_guarded(
                    chunk, self.injector, attempt, scope)
            except Exception as error:
                duration = time.perf_counter() - start
                last_error = error
                attempt += 1
                if round_index < rounds - 1:
                    self.health.retries += 1
                    self._count("retries")
                    time.sleep(self.policy.retry.delay(attempt))
        if chunk.batched:
            return self._quarantine(chunk, attempt)
        failure = TrialFailure(spec=chunk.specs[0], error=repr(last_error),
                               attempts=attempt)
        self.health.record_failure(failure)
        return [(failure, t0, duration)]

    def _quarantine(self, chunk: _Chunk,
                    base_attempt: int) -> List[TimedResult]:
        """Re-run an exhausted chunk spec-by-spec in this process.

        Isolates the poison trial: innocents produce their (bit-identical)
        results on the per-trial oracle; the trial that keeps failing
        becomes a recorded :class:`TrialFailure`.
        """
        self.health.quarantined += len(chunk.specs)
        self._count("quarantined", len(chunk.specs))
        return [self._run_serial(_Chunk((position,), (spec,), (reduce,)),
                                 QUARANTINE_SCOPE,
                                 base_attempt=base_attempt)[0]
                for position, spec, reduce
                in zip(chunk.indices, chunk.specs, chunk.reducers)]

    # -- the supervised parallel loop ----------------------------------
    def _supervise(self, chunks: List[_Chunk], workers: int
                   ) -> Iterator[Tuple[int, Any, str]]:
        """Run every chunk in a pool, yielding ``(index, outcome, scope)``
        as each chunk resolves."""
        attempts = [0] * len(chunks)
        unresolved = set(range(len(chunks)))
        ready: List[Tuple[int, Any, str]] = []
        pool: Optional[ProcessPoolExecutor] = None
        futures: Dict[Any, int] = {}
        self._gauge("workers", workers)

        def gauge_flight() -> None:
            self._gauge("in_flight", len(futures))
            self._gauge("queue_depth", len(unresolved) - len(futures))

        def submit(index: int) -> bool:
            """Dispatch one chunk; False when the pool is already broken."""
            try:
                futures[pool.submit(
                    _execute_chunk_guarded, chunks[index], self.injector,
                    attempts[index], WORKER_SCOPE)] = index
                return True
            except BrokenExecutor:
                return False

        def resolve(index: int, outcome: Any, scope: str) -> None:
            unresolved.discard(index)
            ready.append((index, outcome, scope))

        def settle(index: int) -> bool:
            """Count a chunk failure; True when it went to quarantine."""
            attempts[index] += 1
            if attempts[index] <= self.policy.retry.max_retries:
                self.health.retries += 1
                self._count("retries")
                return False
            resolve(index, self._quarantine(chunks[index], attempts[index]),
                    QUARANTINE_SCOPE)
            return True

        def rebuild_after_failure() -> None:
            nonlocal pool, futures
            self._teardown(pool)
            pool = None
            self.health.pool_rebuilds += 1
            self._count("pool_rebuilds")
            affected = sorted(futures.values())
            futures = {}
            for index in affected:
                settle(index)
            if affected:
                time.sleep(self.policy.retry.delay(
                    max(attempts[index] for index in affected)))

        try:
            while unresolved or ready:
                if not unresolved and pool is not None:
                    # Every future is done: join the workers and the
                    # executor's manager thread now.  A pool left to the
                    # interpreter's exit hook races that thread closing
                    # its wakeup pipe ("Bad file descriptor" at exit).
                    pool.shutdown(wait=True)
                    pool = None
                while ready:
                    yield ready.pop(0)
                if not unresolved:
                    break
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=workers,
                                               mp_context=_mp_context())
                    futures = {}
                    for index in sorted(unresolved):
                        if not submit(index):
                            rebuild_after_failure()
                            break
                    gauge_flight()
                    continue
                if not futures:
                    # Unreached in normal operation (unresolved chunks
                    # are always in flight); force a rebuild rather than
                    # spin if an unknown path ever lands here.
                    self._teardown(pool)
                    pool = None
                    continue
                # The watchdog window is sized for the largest in-flight
                # chunk, so a slow but progressing pool never reads as hung.
                window = None if self.policy.trial_timeout is None else \
                    self.policy.trial_timeout * max(
                        len(chunks[index].specs) for index in futures.values())
                done, _ = wait(set(futures), timeout=window,
                               return_when=FIRST_COMPLETED)
                if not done:
                    # No chunk finished inside the watchdog window: at
                    # least one worker is hung.  Kill and rebuild.
                    self.health.timeouts += 1
                    self._count("timeouts")
                    rebuild_after_failure()
                    continue
                pool_broken = False
                for future in done:
                    index = futures.pop(future)
                    error = future.exception()
                    if error is None:
                        resolve(index, future.result(), WORKER_SCOPE)
                    elif isinstance(error, BrokenExecutor):
                        pool_broken = True
                        settle(index)
                    else:
                        # The chunk itself raised (the pool survives):
                        # retry in place or quarantine.
                        if not settle(index) and not pool_broken:
                            time.sleep(self.policy.retry.delay(
                                attempts[index]))
                            if not submit(index):
                                pool_broken = True
                if pool_broken:
                    rebuild_after_failure()
                gauge_flight()
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _teardown(pool: Optional[ProcessPoolExecutor]) -> None:
        """Terminate a (possibly hung) pool's workers and discard it."""
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)


__all__ = ["ExecutionPolicy", "Reducer", "RetryPolicy", "SupervisedRunner"]
