"""Search-campaign tests: determinism, resume, objectives, acceptance."""

import math
import os

import pytest

from repro.results import RunStore
from repro.runner import (TrialSpec, derive_seed, execute_trial,
                          iter_trials, undecided_windows)
from repro.search import (SEARCH_EXPERIMENT, build_objective,
                          campaign_setup, resolve_search_params,
                          run_search_campaign)
from repro.search.campaign import ROW_SCHEMA
from repro.verification import (InvariantChecker, load_schedule_artifact,
                                replay_schedule)


def _quick_params(**overrides):
    defaults = dict(generations=4, population=4, windows=40, seed=3)
    defaults.update(overrides)
    return resolve_search_params(**defaults)


class TestCampaignDeterminism:
    def test_rows_bit_identical_across_worker_counts(self):
        params = _quick_params()
        reference = run_search_campaign(params, workers=0)
        assert len(reference.rows) == 16
        for workers in (1, 4):
            report = run_search_campaign(params, workers=workers)
            assert report.rows == reference.rows
            assert report.best_score == reference.best_score
            assert report.best_schedule == reference.best_schedule

    def test_rows_match_the_declared_schema(self):
        report = run_search_campaign(_quick_params(), workers=0)
        for row in report.rows:
            assert tuple(row) == ROW_SCHEMA

    def test_different_seeds_explore_differently(self):
        first = run_search_campaign(_quick_params(seed=1), workers=0)
        second = run_search_campaign(_quick_params(seed=2), workers=0)
        assert first.rows != second.rows


class TestCampaignStore:
    def test_campaign_resumes_bit_identically_after_kill(self, tmp_path):
        params = _quick_params()
        first = RunStore.open(str(tmp_path), SEARCH_EXPERIMENT, params)
        reference = run_search_campaign(params, workers=0, store=first)
        assert first.row_count == 16

        # Simulate a mid-generation kill: drop the last 6 stored rows.
        rows_path = os.path.join(first.path, "rows.jsonl")
        lines = open(rows_path).read().splitlines()
        with open(rows_path, "w") as handle:
            handle.write("\n".join(lines[:10]) + "\n")

        resumed_store = RunStore.open(str(tmp_path), SEARCH_EXPERIMENT,
                                      params)
        assert resumed_store.row_count == 10
        resumed = run_search_campaign(params, workers=0,
                                      store=resumed_store)
        assert resumed.rows == reference.rows
        assert resumed.best_score == reference.best_score
        assert resumed.best_schedule == reference.best_schedule
        assert resumed.computed_evaluations == 6

    def test_best_artifact_replays_to_the_reported_score(self, tmp_path):
        params = _quick_params()
        store = RunStore.open(str(tmp_path), SEARCH_EXPERIMENT, params)
        report = run_search_campaign(params, workers=0, store=store)
        assert report.best_artifact is not None
        spec, schedule, artifact = \
            load_schedule_artifact(report.best_artifact)
        assert artifact["objective"] == "undecided-rounds"
        assert artifact["score"] == report.best_score
        assert len(schedule) == params["windows"]
        assert spec.max_windows == params["windows"]
        result = execute_trial(spec)
        assert result.outputs == replay_schedule(
            campaign_setup(params), schedule).outputs
        assert undecided_windows(result) == report.best_score
        assert InvariantChecker().check_result(result).ok

    @pytest.mark.parametrize("objective",
                             ["undecided-rounds", "undecided-fraction"])
    def test_verification_changes_only_the_verdict_columns(self, tmp_path,
                                                           objective):
        """Scores come from the worker either way: checking the trace
        there may fill in ``ok``/``violations``, nothing else."""
        runs = {}
        for verify in (True, False):
            params = _quick_params(objective=objective, verify=verify)
            store = RunStore.open(str(tmp_path), SEARCH_EXPERIMENT, params)
            report = run_search_campaign(params, workers=2, store=store)
            with open(report.best_artifact, "rb") as handle:
                runs[verify] = (report.rows, handle.read())
        (checked, best), (unchecked, unchecked_best) = runs[True], runs[False]
        assert best == unchecked_best
        assert all(row["ok"] is True and row["violations"] == "-"
                   for row in checked)
        assert [dict(row, ok=None) for row in checked] == unchecked

    def test_violating_candidates_are_shrunk_into_artifacts(
            self, tmp_path, buggy_protocol):
        params = resolve_search_params(
            protocol=buggy_protocol, objective="invariant-violation",
            generations=2, population=4, windows=12, seed=0, n=9)
        store = RunStore.open(str(tmp_path), SEARCH_EXPERIMENT, params)
        report = run_search_campaign(params, workers=0, store=store)
        assert report.findings
        assert report.best_score == math.inf
        finding = report.findings[0]
        artifact = os.path.join(store.path, finding["counterexample"])
        assert os.path.isfile(artifact)
        spec, _, _ = load_schedule_artifact(artifact)
        assert not InvariantChecker().check_result(execute_trial(spec)).ok
        # Infinite scores must not leak into the persisted files as the
        # non-RFC `Infinity` literal: everything stays strict JSON.
        import json

        def no_constants(value):
            raise AssertionError(f"non-strict JSON constant {value!r}")

        with open(os.path.join(store.path, "rows.jsonl")) as handle:
            for line in handle:
                if line.strip():
                    json.loads(line, parse_constant=no_constants)
        with open(os.path.join(store.path, "best-schedule.json")) as handle:
            best = json.load(handle, parse_constant=no_constants)
        assert best["score"] is None  # inf encoded as null


class TestObjectives:
    def _sample_result(self, stop_when="first", record_trace=True,
                       record_configurations=False):
        return execute_trial(TrialSpec(
            protocol="reset-tolerant", adversary="split-vote",
            n=12, t=1, inputs=tuple([1] * 6 + [0] * 6), seed=5,
            adversary_kwargs={"seed": 5}, max_windows=30,
            stop_when=stop_when, record_trace=record_trace,
            record_configurations=record_configurations))

    def test_undecided_fraction_scores_from_the_trace(self):
        objective = build_objective("undecided-fraction",
                                    protocol="reset-tolerant")
        result = self._sample_result(stop_when="all")
        score = objective.score(result)
        decided = sum(1 for output in result.outputs
                      if output is not None)
        assert score == pytest.approx(1.0 - decided / result.n)

    def test_vote_margin_rewards_balanced_estimates(self):
        objective = build_objective("vote-margin",
                                    protocol="reset-tolerant")
        result = self._sample_result(record_configurations=True)
        score = objective.score(result)
        assert -1.0 <= score <= 0.0
        # The split-vote adversary holds the margin near zero.
        assert score > -0.5

    def test_vote_margin_rejects_protocols_without_the_hook(self):
        with pytest.raises(ValueError, match="estimate_from_fingerprint"):
            build_objective("vote-margin", protocol="bracha")

    def test_invariant_violation_requires_verification(self):
        with pytest.raises(ValueError, match="verify"):
            resolve_search_params(objective="invariant-violation",
                                  verify=False)

    def test_unknown_names_are_rejected(self):
        with pytest.raises(KeyError, match="unknown objective"):
            build_objective("nope", protocol="reset-tolerant")
        with pytest.raises(ValueError, match="unknown objective"):
            resolve_search_params(objective="nope")
        with pytest.raises(ValueError, match="unknown search strategy"):
            resolve_search_params(strategy="nope")
        with pytest.raises(ValueError, match="tolerates no faults"):
            resolve_search_params(n=4)
        with pytest.raises(ValueError, match="unknown workload"):
            resolve_search_params(workload="nope")


class TestStrategies:
    @pytest.mark.parametrize("strategy", ("hill-climb", "anneal", "evolve"))
    def test_every_strategy_runs_and_is_deterministic(self, strategy):
        params = _quick_params(strategy=strategy, generations=3)
        first = run_search_campaign(params, workers=0)
        second = run_search_campaign(params, workers=0)
        assert first.rows == second.rows
        assert first.best_score >= 0

    def test_vote_margin_campaign_runs(self):
        params = _quick_params(objective="vote-margin", generations=2)
        report = run_search_campaign(params, workers=0)
        assert all(-1.0 <= row["score"] <= 0.0 for row in report.rows)


class TestAcceptance:
    def test_search_strictly_beats_200_fuzzer_samples_at_equal_budget(self):
        """The PR acceptance bar, on the E1 quick Ben-Or-style cell.

        n=12 at the largest admissible t (the E1 quick cell of the
        reset-tolerant protocol), fixed seed: the best of 200
        schedule-fuzzer samples — drawn from the same window
        distribution the search mutates with, on the same fixed engine
        seed — must be strictly exceeded by a `repro search` campaign
        allotted the same 200-evaluation budget (the campaign stops
        spending as soon as it is strictly ahead).
        """
        budget = 200
        params = resolve_search_params(
            protocol="reset-tolerant", strategy="hill-climb",
            objective="undecided-rounds", generations=25, population=8,
            windows=600, seed=0, verify=False)
        assert params["generations"] * params["population"] == budget
        assert params["n"] == 12 and params["t"] == 1  # the E1 quick cell
        setup = campaign_setup(params)
        sampler_kwargs = {"reset_probability": 0.35,
                          "deliver_last_probability": 0.3}
        specs = [TrialSpec(
            protocol=params["protocol"], adversary="schedule-fuzzer",
            n=params["n"], t=params["t"], inputs=setup.inputs,
            adversary_kwargs=dict(
                seed=derive_seed(params["seed"], 9000 + i) & 0xFFFFFFFF,
                **sampler_kwargs),
            seed=setup.seed, max_windows=params["windows"],
            stop_when="first") for i in range(budget)]
        fuzz_best = max(undecided_windows(result)
                        for result in iter_trials(specs, workers=0))
        assert fuzz_best < params["windows"], \
            "horizon too low: the fuzz baseline saturated it"

        params = resolve_search_params(
            protocol="reset-tolerant", strategy="hill-climb",
            objective="undecided-rounds", generations=25, population=8,
            windows=600, seed=0, verify=False,
            target_score=fuzz_best + 1)
        report = run_search_campaign(params, workers=0)
        assert report.computed_evaluations <= budget
        assert report.best_score > fuzz_best
