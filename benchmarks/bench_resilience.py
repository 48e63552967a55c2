"""Benchmark the supervised executor's overhead over the bare runner.

The resilient execution layer (retries, watchdog, quarantine — see
PERFORMANCE.md, "Fault tolerance & chaos testing") is on by default for
every experiment, so its fault-free cost must stay negligible.  This
benchmark runs the same E2 spec batch, on the per-trial backend, through
the bare serial runner and through :class:`repro.runner.SupervisedRunner`
under its default policy, records the relative overhead of the medians as
``extra_info.supervisor_overhead_pct``, and holds it under 5%.

The batch takes a fraction of a second, so one slow round of either kind
moves a best-of-three comparison by more than the budget.  The rounds
therefore alternate, bare then supervised, so both kinds see the same
machine, and the medians of ``ROUNDS`` rounds each are compared.
"""

import statistics
import time

import pytest

from repro.experiments import get_experiment
from repro.runner import SupervisedRunner, run_trials

E2_PARAMS = {"ns": (12, 16), "trials": 2, "use_resets": True, "seed": 9}

ROUNDS = 9
"""Rounds of each kind; bare and supervised rounds alternate."""


def _e2_specs():
    experiment = get_experiment("E2")
    params = experiment.resolve_params(E2_PARAMS)
    return [spec for cell in experiment.cells(params=params)
            for spec in cell.specs]


@pytest.mark.benchmark(group="resilience-supervisor")
def test_bench_supervised_overhead_serial(benchmark):
    specs = _e2_specs()
    bare_seconds, supervised_seconds, outputs = [], [], {}

    def bare():
        # pedantic's untimed setup: the bare round just before each
        # supervised round.
        start = time.perf_counter()
        outputs["bare"] = run_trials(specs, workers=0, backend="trial")
        bare_seconds.append(time.perf_counter() - start)

    def supervised():
        start = time.perf_counter()
        runner = SupervisedRunner(workers=0, backend="trial")
        outputs["supervised"] = list(runner.iter_results(specs))
        supervised_seconds.append(time.perf_counter() - start)

    benchmark.pedantic(supervised, setup=bare, iterations=1, rounds=ROUNDS)
    # The supervisor must not change values, only wall-clock time.
    assert outputs["supervised"] == outputs["bare"]
    assert len(bare_seconds) == len(supervised_seconds) == ROUNDS

    bare_median = statistics.median(bare_seconds)
    supervised_median = statistics.median(supervised_seconds)
    overhead_pct = 100.0 * (supervised_median - bare_median) / bare_median
    benchmark.extra_info["trials"] = len(specs)
    benchmark.extra_info["rounds"] = ROUNDS
    benchmark.extra_info["bare_runner_seconds"] = bare_median
    benchmark.extra_info["supervisor_overhead_pct"] = overhead_pct
    assert overhead_pct < 5.0, (
        f"supervisor overhead {overhead_pct:.2f}% exceeds the 5% budget "
        f"(bare median {bare_median:.3f}s, supervised median "
        f"{supervised_median:.3f}s over {ROUNDS} alternating rounds each)")
