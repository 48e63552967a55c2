"""Chaos tests for the fuzz and search campaigns.

Both campaigns run as cells of the shared campaign loop
(:func:`repro.experiments.base.run_cells`), so they inherit its
contract under injected faults: every surviving row is bit-identical to
a fault-free run, a trial that fails through every recovery rung leaves
no row and a record in the health ledger, and a resume retries exactly
the missing cells.  The chaos seeds are pinned, and each test asserts the
faults really fired, so a refactor cannot turn these into no-ops.
"""

import io
import json
import math
import pickle

import pytest

from repro.faults import ChaosConfig
from repro.results import RunStore
from repro.runner import RunHealth
from repro.runner.supervisor import ExecutionPolicy, RetryPolicy
from repro.search import (SEARCH_EXPERIMENT, resolve_search_params,
                          run_search_campaign)
from repro.search import campaign as search_campaign
from repro.simulation.trace import ExecutionTrace
from repro.verification import fuzzer, resolve_fuzz_params, run_fuzz_campaign
from repro.verification.fuzzer import FUZZ_EXPERIMENT, CheckedTrial

FAST_RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.0,
                         backoff_cap_seconds=0.0)

POISON = ExecutionPolicy(retry=FAST_RETRY,
                         chaos=ChaosConfig(seed=0, poison=0.2, raise_=0.2))
"""Poisoned trials fail on every attempt: they end as recorded failures."""


def _failed_tags(health):
    return sorted(tuple(entry["tag"]) for entry in health.failures)


@pytest.fixture(scope="module")
def fuzz_params():
    return resolve_fuzz_params(trials=12, seed=0, max_windows=30)


@pytest.fixture(scope="module")
def fuzz_clean(fuzz_params):
    return run_fuzz_campaign(fuzz_params, workers=0).rows


class TestFuzzChaos:
    def test_surviving_rows_match_a_clean_run(self, fuzz_params,
                                              fuzz_clean):
        health = RunHealth()
        report = run_fuzz_campaign(fuzz_params, workers=0, policy=POISON,
                                   health=health)
        assert report.failed_trials > 0
        assert health.retries > 0
        survivors = {row["trial"] for row in report.rows}
        assert report.rows == [row for row in fuzz_clean
                               if row["trial"] in survivors]
        missing = sorted(set(range(fuzz_params["trials"])) - survivors)
        assert _failed_tags(health) == [(FUZZ_EXPERIMENT, index)
                                        for index in missing]
        assert report.computed_trials == len(survivors)

    def test_resume_fills_in_the_missing_trials(self, tmp_path,
                                                fuzz_params, fuzz_clean):
        store = RunStore.open(str(tmp_path), FUZZ_EXPERIMENT, fuzz_params)
        first = run_fuzz_campaign(fuzz_params, workers=0, store=store,
                                  policy=POISON)
        assert first.failed_trials > 0
        assert store.row_count == len(first.rows)
        assert len(store.manifest["run_health"]["failures"]) \
            == first.failed_trials

        resumed_store = RunStore.open(str(tmp_path), FUZZ_EXPERIMENT,
                                      fuzz_params)
        resumed = run_fuzz_campaign(fuzz_params, workers=0,
                                    store=resumed_store)
        assert resumed.rows == fuzz_clean
        assert resumed.computed_trials == first.failed_trials
        assert resumed.failed_trials == 0
        assert resumed_store.row_count == fuzz_params["trials"]

    def test_crash_chaos_in_the_pool_recovers_every_row(self, fuzz_params,
                                                        fuzz_clean):
        health = RunHealth()
        policy = ExecutionPolicy(retry=FAST_RETRY,
                                 chaos=ChaosConfig(seed=7, crash=0.1,
                                                   raise_=0.05))
        report = run_fuzz_campaign(fuzz_params, workers=2, policy=policy,
                                   health=health)
        assert health.retries > 0
        assert health.failures == []
        assert report.rows == fuzz_clean


def _traces_in(value):
    """Every ExecutionTrace reachable from ``value``, found by pickling."""
    found = []

    class Spotter(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, ExecutionTrace):
                found.append(obj)
            return None

    Spotter(io.BytesIO()).dump(value)
    return found


class TestTracesStayInTheWorker:
    """A Bracha fuzz trial is checked where it ran; its trace never
    reaches the parent's ``build_row``, whichever rung produced it."""

    def test_rows_and_build_row_inputs(self, monkeypatch):
        seen = []
        build = fuzzer._trial_row

        def spy(params, index, spec, results):
            seen.append(results)
            return build(params, index, spec, results)

        monkeypatch.setattr(fuzzer, "_trial_row", spy)
        params = resolve_fuzz_params(protocol="bracha", trials=8, seed=1,
                                     max_steps=2000)
        serial = run_fuzz_campaign(params, workers=0).rows
        pooled = run_fuzz_campaign(params, workers=2).rows
        assert json.dumps(pooled) == json.dumps(serial)

        # No retries: a chunk that raises once goes straight to serial
        # quarantine, where the poisoned trials fail for good.
        health = RunHealth()
        policy = ExecutionPolicy(
            retry=RetryPolicy(max_retries=0, backoff_seconds=0.0),
            chaos=ChaosConfig(seed=3, raise_=0.3, poison=0.1))
        chaotic = run_fuzz_campaign(params, workers=2, policy=policy,
                                    health=health).rows
        assert health.quarantined > 0 and health.failures
        survivors = {row["trial"] for row in chaotic}
        assert json.dumps(chaotic) == json.dumps(
            [row for row in serial if row["trial"] in survivors])

        assert len(seen) == 2 * len(serial) + len(chaotic)
        for results in seen:
            [checked] = results
            assert isinstance(checked, CheckedTrial)
            assert _traces_in(results) == []


def _observed_scores(monkeypatch):
    """Record every score list the campaign's strategy observes."""
    observed = []
    build = search_campaign.campaign_strategy

    def recording_strategy(params):
        strategy = build(params)
        observe = strategy.observe

        def spy(generation, genomes, scores, frontiers):
            observed.append(list(scores))
            return observe(generation, genomes, scores, frontiers)

        strategy.observe = spy
        return strategy

    monkeypatch.setattr(search_campaign, "campaign_strategy",
                        recording_strategy)
    return observed


class TestSearchChaos:
    def test_failed_candidates_score_minus_infinity(self, monkeypatch):
        params = resolve_search_params(generations=1, population=8,
                                       windows=30, seed=3)
        clean = run_search_campaign(params, workers=0)
        observed = _observed_scores(monkeypatch)
        health = RunHealth()
        report = run_search_campaign(params, workers=0, policy=POISON,
                                     health=health)
        assert report.failed_evaluations > 0
        [scores] = observed
        failed = [candidate for candidate, score in enumerate(scores)
                  if score == -math.inf]
        assert _failed_tags(health) == [(SEARCH_EXPERIMENT, 0, candidate)
                                        for candidate in failed]
        assert len(failed) == report.failed_evaluations
        assert report.rows == [row for row in clean.rows
                               if row["candidate"] not in failed]

    def test_failed_candidates_are_retried_on_resume(self, tmp_path):
        params = resolve_search_params(generations=1, population=8,
                                       windows=30, seed=3)
        clean = run_search_campaign(params, workers=0)
        store = RunStore.open(str(tmp_path), SEARCH_EXPERIMENT, params)
        first = run_search_campaign(params, workers=0, store=store,
                                    policy=POISON)
        assert first.failed_evaluations > 0
        assert store.row_count == params["population"] \
            - first.failed_evaluations

        resumed_store = RunStore.open(str(tmp_path), SEARCH_EXPERIMENT,
                                      params)
        resumed = run_search_campaign(params, workers=0,
                                      store=resumed_store)
        assert resumed.computed_evaluations == first.failed_evaluations
        assert resumed.rows == clean.rows
        assert resumed.best_score == clean.best_score
        assert resumed.best_schedule == clean.best_schedule
