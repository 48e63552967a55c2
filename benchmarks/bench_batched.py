"""Benchmark the batched execution backend (`repro.batched`).

Runs an E2-shaped workload — reset-tolerant agreement against the seeded
split-vote adversary at n=13, stop-at-first-decision — through both
backends, and the same workload against the adaptive-resetting adversary
(the batched engine's resetting windows) on the batched backend.  Each
benchmark records, besides the wall times, each backend's
``trials_per_sec`` as ``extra_info``.  The performance trajectory
(`scripts/bench_record.py`, ``BENCH_<n>.json``) gates on those rates, so
a change that silently de-vectorizes the hot path (or slows the
per-trial oracle) fails the bench gate even when the absolute wall time
still looks plausible.

The batched benchmark also records ``speedup_vs_trial`` against a
single timed pass of the per-trial path over the same specs, and asserts
the results are identical — the bit-identity contract, measured where it
is cheapest to check.
"""

import random
import time

import pytest

from repro.core.thresholds import max_tolerable_t
from repro.runner import TrialSpec, run_trials

TRIALS = 512
N = 13


def _e2_shaped_specs(count: int = TRIALS, n: int = N,
                     adversary: str = "split-vote") -> list:
    """Seed-deterministic specs shaped like the E2 grid."""
    t = max_tolerable_t(n)
    rng = random.Random(42)
    specs = []
    for index in range(count):
        inputs = tuple(i % 2 for i in range(n)) if index % 2 else \
            tuple(1 for _ in range(n))
        specs.append(TrialSpec(
            protocol="reset-tolerant", adversary=adversary,
            n=n, t=t, inputs=inputs, seed=rng.getrandbits(32),
            adversary_kwargs={"seed": rng.getrandbits(32)},
            stop_when="first", max_windows=60_000))
    return specs


@pytest.mark.benchmark(group="batched-backend")
def test_bench_batched_backend(benchmark):
    """The vectorized path, with the per-trial oracle as its baseline."""
    specs = _e2_shaped_specs()

    results = benchmark.pedantic(
        run_trials,
        kwargs={"specs": specs, "workers": 0, "backend": "batched"},
        iterations=1, rounds=3)

    started = time.perf_counter()
    oracle = run_trials(specs, workers=0, backend="trial")
    trial_elapsed = time.perf_counter() - started

    mean = benchmark.stats.stats.mean
    benchmark.extra_info["trials"] = len(specs)
    benchmark.extra_info["trials_per_sec"] = len(specs) / mean
    benchmark.extra_info["trial_baseline_seconds"] = trial_elapsed
    benchmark.extra_info["speedup_vs_trial"] = trial_elapsed / mean
    assert results == oracle  # the bit-identity contract


@pytest.mark.benchmark(group="batched-backend")
def test_bench_batched_reset_path(benchmark):
    """Resetting windows: E2's default adaptive-resetting adversary.

    Every window resets processors, which then sit out the next window
    resyncing; the engine runs these windows in closed form too.
    """
    specs = _e2_shaped_specs(adversary="adaptive-resetting")

    results = benchmark.pedantic(
        run_trials,
        kwargs={"specs": specs, "workers": 0, "backend": "batched"},
        iterations=1, rounds=3)

    benchmark.extra_info["trials"] = len(specs)
    benchmark.extra_info["trials_per_sec"] = \
        len(specs) / benchmark.stats.stats.mean
    assert results == run_trials(specs, workers=0,
                                 backend="trial")  # bit identity


@pytest.mark.benchmark(group="batched-backend")
def test_bench_trial_backend(benchmark):
    """The per-trial oracle on the same workload (the 1x reference)."""
    specs = _e2_shaped_specs()

    benchmark.pedantic(
        run_trials, kwargs={"specs": specs, "workers": 0, "backend": "trial"},
        iterations=1, rounds=1)

    mean = benchmark.stats.stats.mean
    benchmark.extra_info["trials"] = len(specs)
    benchmark.extra_info["trials_per_sec"] = len(specs) / mean
