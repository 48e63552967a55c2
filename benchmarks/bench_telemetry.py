"""Benchmark the telemetry recorder's overhead on the execution path.

Runs an E2-quick-shaped workload (reset-tolerant split-vote trials
through ``repro.runner`` on the per-trial backend, so every trial records
its own span) twice over the same specs — bare, and with a
:class:`~repro.telemetry.Telemetry` recorder writing its full
``telemetry.jsonl`` event log — and records ``telemetry_overhead_pct``
as ``extra_info``.  The overhead budget documented in PERFORMANCE.md is
2%; the trajectory (`scripts/bench_record.py`, ``BENCH_<n>.json``)
carries the measured number so a change that makes observation expensive
is visible even while the absolute wall time still looks plausible.

The bit-identity half of the observer-effect contract is asserted here
too, where it is cheapest: both passes must return identical results.
"""

import random
import time

import pytest

from repro.core.thresholds import max_tolerable_t
from repro.runner import TrialSpec, run_trials
from repro.telemetry import Telemetry

TRIALS = 256
N = 13


def _e2_shaped_specs(count: int = TRIALS, n: int = N) -> list:
    """Seed-deterministic split-vote specs shaped like the E2 grid."""
    t = max_tolerable_t(n)
    rng = random.Random(42)
    specs = []
    for index in range(count):
        inputs = tuple(i % 2 for i in range(n)) if index % 2 else \
            tuple(1 for _ in range(n))
        specs.append(TrialSpec(
            protocol="reset-tolerant", adversary="split-vote",
            n=n, t=t, inputs=inputs, seed=rng.getrandbits(32),
            adversary_kwargs={"seed": rng.getrandbits(32)},
            stop_when="first", max_windows=60_000))
    return specs


@pytest.mark.benchmark(group="telemetry-overhead")
def test_bench_telemetry_overhead(benchmark, tmp_path):
    """Instrumented serial execution vs. the same workload bare."""
    specs = _e2_shaped_specs()

    started = time.perf_counter()
    bare = run_trials(specs, workers=0, backend="trial")
    bare_elapsed = time.perf_counter() - started

    def observed_pass():
        telemetry = Telemetry(sink=str(tmp_path / "telemetry.jsonl"))
        with telemetry.span("campaign", label="bench"):
            results = run_trials(specs, workers=0, backend="trial",
                                 telemetry=telemetry)
        telemetry.close()
        return results, telemetry

    results, telemetry = benchmark.pedantic(observed_pass,
                                            iterations=1, rounds=3)
    assert results == bare  # the observer-effect contract, measured
    assert telemetry.counters["trials_completed"] == len(specs)

    mean = benchmark.stats.stats.mean
    benchmark.extra_info["trials"] = len(specs)
    benchmark.extra_info["trials_per_sec"] = len(specs) / mean
    benchmark.extra_info["bare_baseline_seconds"] = bare_elapsed
    benchmark.extra_info["telemetry_overhead_pct"] = \
        (mean - bare_elapsed) / bare_elapsed * 100.0
