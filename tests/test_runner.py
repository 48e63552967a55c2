"""Tests for the parallel trial runner.

The load-bearing property is determinism: a trial is fully described by its
spec, so the same batch of specs must produce identical results whether it
runs serially in-process (``workers=0``), through a single worker process,
or fanned out across several workers.
"""

import pytest

from repro.adversaries.registry import (available_adversaries,
                                        build_adversary, build_strategy)
from repro.runner import (SupervisedRunner, TrialSpec, derive_seed,
                          execute_trial, run_trials,
                          windows_to_first_decision)
from repro.simulation.windows import run_execution
from repro.adversaries.split_vote import SplitVoteAdversary
from repro.core.reset_tolerant import ResetTolerantAgreement


def make_specs(trials=6, master_seed=11):
    """A small battery mixing window- and step-engine trials."""
    specs = []
    for index in range(trials):
        specs.append(TrialSpec(
            protocol="reset-tolerant", adversary="split-vote",
            n=12, t=1, inputs=(0, 1) * 6,
            seed=derive_seed(master_seed, 2 * index),
            adversary_kwargs={"seed": derive_seed(master_seed,
                                                  2 * index + 1)},
            max_windows=3000, stop_when="first", tag=("cell", index % 2)))
    specs.append(TrialSpec(
        protocol="bracha", adversary="byzantine",
        n=7, t=2, inputs=(0, 1, 0, 1, 0, 1, 0),
        seed=derive_seed(master_seed, 100),
        adversary_kwargs={"corrupted": (0, 1), "strategy": "flip",
                          "seed": derive_seed(master_seed, 101)},
        engine="step", max_steps=200000, stop_when="all", tag=("step",)))
    return specs


class TestTrialSpec:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            TrialSpec(protocol="ben-or", adversary="benign", n=3, t=1,
                      inputs=(0, 1, 0), engine="quantum")

    def test_rejects_bad_stop_condition(self):
        with pytest.raises(ValueError):
            TrialSpec(protocol="ben-or", adversary="benign", n=3, t=1,
                      inputs=(0, 1, 0), stop_when="eventually")

    def test_execute_matches_direct_run(self):
        """A spec execution equals the equivalent hand-built execution."""
        spec = TrialSpec(
            protocol="reset-tolerant", adversary="split-vote",
            n=12, t=1, inputs=(0, 1) * 6, seed=21,
            adversary_kwargs={"seed": 33}, max_windows=3000,
            stop_when="first")
        direct = run_execution(
            ResetTolerantAgreement, n=12, t=1, inputs=[0, 1] * 6,
            adversary=SplitVoteAdversary(seed=33), max_windows=3000,
            seed=21, stop_when="first")
        assert execute_trial(spec) == direct


class TestDeterminism:
    def test_identical_results_across_worker_counts(self):
        specs = make_specs()
        serial = run_trials(specs, workers=0)
        one_worker = run_trials(specs, workers=1)
        four_workers = run_trials(specs, workers=4)
        assert serial == one_worker
        assert serial == four_workers

    def test_derive_seed_is_stable_and_spread(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        seeds = {derive_seed(5, index) for index in range(64)}
        assert len(seeds) == 64


class TestAggregation:
    def test_windows_metric_falls_back_to_cap(self):
        spec = TrialSpec(
            protocol="reset-tolerant", adversary="adaptive-resetting",
            n=12, t=1, inputs=(0, 1) * 6, seed=3,
            adversary_kwargs={"seed": 4}, max_windows=2,
            stop_when="first")
        result = execute_trial(spec)
        assert windows_to_first_decision(result) >= 1.0


class TestRegistry:
    def test_unknown_adversary_raises_with_known_names(self):
        with pytest.raises(KeyError, match="split-vote"):
            build_adversary("does-not-exist")

    def test_unknown_strategy_raises(self):
        with pytest.raises(KeyError, match="equivocate"):
            build_strategy("does-not-exist")

    def test_every_registered_adversary_is_instantiable_by_name(self):
        # Every registry entry must build with at worst a seed kwarg.
        for name in available_adversaries():
            adversary = build_adversary(name)
            assert adversary is not None

    def test_byzantine_strategy_resolved_from_string(self):
        adversary = build_adversary("byzantine", corrupted=(0,),
                                    strategy="silent", seed=1)
        assert type(adversary.strategy).__name__ == "SilentStrategy"


class TestRunnerValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            SupervisedRunner(workers=-1)

    def test_empty_batch(self):
        assert run_trials([], workers=2) == []
