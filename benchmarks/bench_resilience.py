"""Benchmark the supervised executor's overhead over the bare runner.

The resilient execution layer (retries, watchdog, quarantine — see
PERFORMANCE.md, "Fault tolerance & chaos testing") is on by default for
every experiment, so its fault-free cost must stay negligible.  This
benchmark runs the same E2 spec batch, on the per-trial backend, through
the bare serial runner and through :class:`repro.runner.SupervisedRunner`
under its default policy, records the relative overhead as
``extra_info.supervisor_overhead_pct``, and holds it under 5%.
"""

import time

import pytest

from repro.experiments import get_experiment
from repro.runner import SupervisedRunner, run_trials

E2_PARAMS = {"ns": (12, 16), "trials": 2, "use_resets": True, "seed": 9}


def _e2_specs():
    experiment = get_experiment("E2")
    params = experiment.resolve_params(E2_PARAMS)
    return [spec for cell in experiment.cells(params=params)
            for spec in cell.specs]


def _bare_seconds(specs, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run_trials(specs, workers=0, backend="trial")
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="resilience-supervisor")
def test_bench_supervised_overhead_serial(benchmark):
    specs = _e2_specs()

    def supervised():
        runner = SupervisedRunner(workers=0, backend="trial")
        return list(runner.iter_results(specs))

    results = benchmark.pedantic(supervised, iterations=1, rounds=3)
    # The supervisor must not change values, only wall-clock time.
    assert results == run_trials(specs, workers=0, backend="trial")

    bare = _bare_seconds(specs)
    supervised_seconds = benchmark.stats.stats.min
    overhead_pct = 100.0 * (supervised_seconds - bare) / bare
    benchmark.extra_info["trials"] = len(specs)
    benchmark.extra_info["bare_runner_seconds"] = bare
    benchmark.extra_info["supervisor_overhead_pct"] = overhead_pct
    assert overhead_pct < 5.0, (
        f"supervisor overhead {overhead_pct:.2f}% exceeds the 5% budget "
        f"(bare {bare:.3f}s, supervised {supervised_seconds:.3f}s)")
