"""Benchmark E2 — exponential running time against the split-vote adversary.

Regenerates the "windows until first decision versus n" series for split
inputs under the strongly adaptive (vote-splitting + resetting) adversary,
together with the analytic prediction and the exponential fit, via the
experiment registry, on the per-trial engine (``backend="trial"``, the
path its ``BENCH_<n>.json`` points time).
"""

import pytest

from repro.experiments import get_experiment


@pytest.mark.benchmark(group="E2-exponential-rounds")
def test_bench_exponential_windows_vs_n(benchmark, print_rows):
    experiment = get_experiment("E2")
    rows = benchmark.pedantic(
        experiment.run,
        kwargs={"params": {"ns": (12, 16, 20, 24), "trials": 4,
                           "use_resets": True, "seed": 2},
                "backend": "trial"},
        iterations=1, rounds=1)
    print_rows("E2: windows to first decision (split inputs, strongly "
               "adaptive adversary)", rows)
    data = [row for row in rows if row["experiment"] == "E2"]
    fit = [row for row in rows if row["experiment"] == "E2-fit"]
    # Split inputs are slower than unanimous ones at every size, and the
    # fitted growth rate across n is positive (exponential shape).
    assert all(row["mean_windows"] >= row["unanimous_mean_windows"]
               for row in data)
    assert fit and fit[0]["fit_growth_rate_per_processor"] > 0


@pytest.mark.benchmark(group="E2-exponential-rounds")
def test_bench_exponential_windows_without_resets(benchmark, print_rows):
    """Ablation: scheduling power alone (no resets) already forces the blowup."""
    experiment = get_experiment("E2")
    rows = benchmark.pedantic(
        experiment.run,
        kwargs={"params": {"ns": (12, 16, 20), "trials": 3,
                           "use_resets": False, "seed": 3},
                "backend": "trial"},
        iterations=1, rounds=1)
    print_rows("E2 (ablation): split-vote adversary without resets", rows)
    data = [row for row in rows if row["experiment"] == "E2"]
    assert data[-1]["mean_windows"] > data[0]["unanimous_mean_windows"]
