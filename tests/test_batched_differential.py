"""The differential harness and the backend plumbing, end to end.

Covers the differential-coverage contract: batched-vs-trial bit-identity
on the real E1/E2/E9 quick grids, across worker counts 0/1/4, under injected
chaos faults and a raising engine, and — via hypothesis — under every
admissible partition of a spec list into sub-batches.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batched import resolve_backend
from repro.experiments import get_experiment
from repro.runner import RunHealth, TrialSpec, run_trials
from repro.runner.spec import execute_trial
from repro.verification.batched_diff import diff_experiment_cells, diff_specs

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quick_specs(name):
    experiment = get_experiment(name)
    cells = experiment.cells(None, quick=True)
    return [spec for cell in cells for spec in cell.specs]


def _split_vote_specs(count, base_seed=99, n=8, t=1):
    rng = random.Random(base_seed)
    return [TrialSpec(
        protocol="reset-tolerant", adversary="split-vote", n=n, t=t,
        inputs=tuple(rng.getrandbits(1) for _ in range(n)),
        seed=rng.getrandbits(32),
        adversary_kwargs={"seed": rng.getrandbits(32)},
        max_windows=1000) for _ in range(count)]


# -- the harness itself -------------------------------------------------

@pytest.mark.parametrize("name", ["E1", "E2", "E9"])
def test_harness_passes_on_quick_grids(name):
    report = diff_experiment_cells(name, quick=True, sample=1.0)
    assert report.ok, report.summary()
    assert report.batched > 0
    assert report.replayed == report.batched  # sample=1.0 replays all


def test_harness_module_runs_without_runtime_warning():
    """``python -m`` on the harness must not find it already imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.verification.batched_diff", "--experiments", "E2",
         "--quick"],
        capture_output=True, text=True, env=env, timeout=300)
    assert completed.returncode == 0, completed.stderr


def test_harness_sampling_is_deterministic_and_partial():
    specs = _split_vote_specs(12)
    full = diff_specs(specs, sample=1.0)
    assert full.ok and full.replayed == 12
    half_a = diff_specs(specs, sample=0.5, sample_seed=3)
    half_b = diff_specs(specs, sample=0.5, sample_seed=3)
    assert half_a.ok
    assert half_a.replayed == half_b.replayed == 6


def test_harness_detects_a_mismatch():
    """A doctored batched result must surface as a DiffMismatch."""
    import dataclasses

    import repro.verification.batched_diff as bd

    specs = _split_vote_specs(4)
    real_compare = bd._compare

    def sabotage(index, spec, batched_result, oracle_result):
        doctored = dataclasses.replace(
            batched_result,
            windows_elapsed=batched_result.windows_elapsed + 1)
        return real_compare(index, spec, doctored, oracle_result)

    try:
        bd._compare = sabotage
        report = bd.diff_specs(specs, sample=1.0)
    finally:
        bd._compare = real_compare
    assert not report.ok
    assert all("windows_elapsed" in mismatch.fields
               for mismatch in report.mismatches)
    assert "MISMATCH" not in report.summary() or not report.ok
    assert "windows_elapsed" in report.mismatches[0].describe()


def test_harness_rejects_bad_sample():
    with pytest.raises(ValueError):
        diff_specs(_split_vote_specs(2), sample=0.0)


# -- worker counts ------------------------------------------------------

@pytest.mark.parametrize("workers", [0, 1, 4])
def test_backend_identity_across_worker_counts(workers):
    """Worker count never changes values, only wall time."""
    specs = _quick_specs("E1")
    batched = run_trials(specs, workers=workers, backend="batched")
    trial = run_trials(specs, workers=0, backend="trial")
    assert batched == trial


def test_experiment_rows_identical_across_backends():
    experiment = get_experiment("E2")
    rows_trial = experiment.run(quick=True, workers=0, backend="trial")
    rows_batched = experiment.run(quick=True, workers=0,
                                  backend="batched")
    assert rows_trial == rows_batched


# -- chaos --------------------------------------------------------------

@pytest.mark.parametrize("workers", [0, 2])
def test_backend_identity_under_chaos(workers):
    """Chaos faults batched chunks; surviving results stay bit-identical."""
    from repro.faults import parse_chaos_spec
    from repro.runner import ExecutionPolicy, RetryPolicy

    chaos = parse_chaos_spec("raise=0.3,seed=7")
    specs = _quick_specs("E1")
    oracle = run_trials(specs, workers=0, backend="trial")
    policy = ExecutionPolicy(retry=RetryPolicy(max_retries=2), chaos=chaos)
    health = RunHealth()
    assert run_trials(specs, workers=workers, policy=policy, health=health,
                      backend="batched") == oracle
    assert health.retries > 0
    assert health.failures == []


@pytest.mark.parametrize("workers", [0, 2])
def test_raising_engine_is_quarantined_onto_the_oracle(workers,
                                                       monkeypatch):
    """An engine exception is a chunk failure: retried, then quarantined."""
    from repro.batched.engine import BatchedWindowEngine

    def broken(self):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(BatchedWindowEngine, "run", broken)
    specs = _split_vote_specs(6)
    health = RunHealth()
    results = run_trials(specs, workers=workers, health=health,
                         backend="batched")
    assert results == [execute_trial(spec) for spec in specs]
    assert health.quarantined == len(specs)
    assert health.retries > 0 and health.failures == []


# -- partition invariance (hypothesis) ----------------------------------

_PARTITION_SPECS = _split_vote_specs(10, base_seed=5)
_PARTITION_ORACLE = [execute_trial(spec) for spec in _PARTITION_SPECS]


@given(cuts=st.sets(st.integers(min_value=1, max_value=9), max_size=4))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_any_batch_partition_yields_identical_results(cuts):
    """Splitting a batch anywhere changes nothing observable.

    The engine batches by signature, but nothing guarantees callers hand
    it all matching specs at once (the store's resume path re-submits
    subsets).  Every partition of the spec list into contiguous
    sub-batches must reproduce the oracle exactly.
    """
    from repro.batched.engine import BatchedWindowEngine

    bounds = [0] + sorted(cuts) + [len(_PARTITION_SPECS)]
    outputs = []
    for start, stop in zip(bounds, bounds[1:]):
        part = _PARTITION_SPECS[start:stop]
        if not part:
            continue
        results, quarantined = BatchedWindowEngine(part).run()
        assert not quarantined
        outputs.extend(results)
    assert outputs == _PARTITION_ORACLE


# -- backend resolution -------------------------------------------------

def test_resolve_backend_names():
    assert resolve_backend(None) == "batched"
    assert resolve_backend("trial") == "trial"
    assert resolve_backend("batched") == "batched"
    for unknown in ("auto", "gpu"):
        with pytest.raises(ValueError):
            resolve_backend(unknown)
