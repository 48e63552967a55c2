"""Supervised-executor tests: retries, watchdog, quarantine, chaos parity.

The keystone property of the resilient execution layer: under *any*
injected fault pattern, every surviving result is bit-identical to what a
fault-free serial run produces, and a run killed mid-chaos resumes to the
identical table.  The supervisor is allowed to change wall-clock time and
the health counters — never values.

The chaos seeds used here are pinned: because fault decisions are pure
functions of ``(chaos seed, spec)``, each scenario deterministically
injects the same faults on every test run, and each test also asserts
non-vacuity (the configured fault really fired) so a refactor cannot turn
a recovery test into a no-op.
"""

import json
import os

import pytest

from repro.experiments import get_experiment
from repro.faults import CRASH, HANG, POISON, ChaosConfig, FaultInjector
from repro.results import RunStore, run_directory
from repro.runner import (RunHealth, SupervisedRunner, TrialFailure,
                          TrialSpec, empty_health_block, execute_trial,
                          merge_health_block, run_trials)
from repro.runner.supervisor import ExecutionPolicy, RetryPolicy

FAST_RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.0,
                         backoff_cap_seconds=0.0)
"""The default retry budget without the (test-slowing) backoff sleeps."""

E2_PARAMS = {"ns": (12, 16), "trials": 1, "max_windows": 200000,
             "use_resets": True, "seed": 9}


def make_specs(count=12):
    """The chaos battery: cheap, distinct window-engine specs."""
    specs = []
    for seed in range(count):
        specs.append(TrialSpec(
            protocol="reset-tolerant", adversary="adaptive-resetting",
            n=12, t=1, inputs=(0, 1) * 6, seed=seed,
            adversary_kwargs={"seed": seed + 1}, max_windows=4,
            stop_when="first", tag=("cell", seed)))
    return specs


@pytest.fixture(scope="module")
def reference():
    """The fault-free serial baseline every chaos run must reproduce."""
    return run_trials(make_specs(), workers=0, backend="trial")


def run_supervised(workers, chaos=None, trial_timeout=None):
    """The battery in per-trial chunks, so faults hit single trials."""
    policy = ExecutionPolicy(retry=FAST_RETRY, trial_timeout=trial_timeout,
                             chaos=chaos)
    runner = SupervisedRunner(workers=workers, policy=policy,
                              backend="trial")
    return list(runner.iter_results(make_specs())), runner


class TestRetryPolicy:
    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(backoff_seconds=0.05, backoff_cap_seconds=1.0)
        assert [policy.delay(attempt) for attempt in (1, 2, 3)] == \
            [0.05, 0.1, 0.2]
        assert RetryPolicy(backoff_seconds=0.6).delay(5) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-0.1)


class TestExecutionPolicy:
    def test_defaults_are_retries_only(self):
        policy = ExecutionPolicy()
        assert policy.retry.max_retries == 2
        assert policy.trial_timeout is None
        assert policy.chaos is None

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(trial_timeout=0.0)

    def test_hang_chaos_requires_a_watchdog(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(chaos=ChaosConfig(hang=0.1))
        ExecutionPolicy(chaos=ChaosConfig(hang=0.1), trial_timeout=1.0)


class TestSerialSupervision:
    def test_clean_run_matches_bare_runner(self, reference):
        results, runner = run_supervised(workers=0)
        assert results == reference
        assert runner.health.clean

    def test_raise_chaos_retries_to_parity(self, reference):
        chaos = ChaosConfig(seed=3, raise_=0.5)
        assert any(FaultInjector(chaos).decide(spec) is not None
                   for spec in make_specs())
        results, runner = run_supervised(workers=0, chaos=chaos)
        assert results == reference
        assert runner.health.retries > 0
        assert runner.health.failures == []

    def test_crash_chaos_degrades_gracefully_at_workers_zero(
            self, reference):
        # In-process there is no worker to kill: the injected crash
        # degrades to a raised fault and the retry loop absorbs it.
        chaos = ChaosConfig(seed=5, crash=0.25)
        results, runner = run_supervised(workers=0, chaos=chaos)
        assert results == reference
        assert runner.health.retries > 0
        assert runner.health.failures == []


class TestParallelSupervision:
    def test_clean_run_matches_bare_runner(self, reference):
        results, runner = run_supervised(workers=2)
        assert results == reference
        assert runner.health.clean

    def test_broken_pool_recovery(self, reference):
        # Worker suicides break the ProcessPoolExecutor; the supervisor
        # must rebuild it and re-dispatch only the unfinished chunks.
        chaos = ChaosConfig(seed=5, crash=0.25)
        assert any(FaultInjector(chaos).decide(spec) == CRASH
                   for spec in make_specs())
        results, runner = run_supervised(workers=4, chaos=chaos)
        assert results == reference
        assert runner.health.pool_rebuilds >= 1
        assert runner.health.failures == []

    def test_poison_trials_are_quarantined_not_fatal(self, reference):
        chaos = ChaosConfig(seed=11, poison=0.2)
        specs = make_specs()
        poisoned = {index for index, spec in enumerate(specs)
                    if FaultInjector(chaos).decide(spec) == POISON}
        assert poisoned
        results, runner = run_supervised(workers=4, chaos=chaos)
        for index, item in enumerate(results):
            if index in poisoned:
                assert isinstance(item, TrialFailure)
                assert item.spec == specs[index]
                assert "poison" in item.error
            else:
                # Innocent neighbours still produce bit-identical rows.
                assert item == reference[index]
        assert runner.health.quarantined >= len(poisoned)
        assert len(runner.health.failures) == len(poisoned)
        assert all(entry["attempts"] > 0
                   for entry in runner.health.failures)

    def test_watchdog_recovers_hung_workers(self, reference):
        chaos = ChaosConfig(seed=7, hang=0.15, hang_seconds=60.0)
        assert any(FaultInjector(chaos).decide(spec) == HANG
                   for spec in make_specs())
        results, runner = run_supervised(workers=4, chaos=chaos,
                                         trial_timeout=2.0)
        assert results == reference
        assert runner.health.timeouts >= 1
        assert runner.health.pool_rebuilds >= 1
        assert runner.health.failures == []


class TestBareRunnerChunkIsolation:
    """A failing chunk must not take later chunks' results with it."""

    @staticmethod
    def _batch_with_poison():
        # n=6 with t=1 violates the 2*T3 > n threshold precondition, so
        # this spec constructs fine but raises on execution — a real
        # (non-injected) poison trial.
        specs = make_specs(8)
        poison = TrialSpec(
            protocol="reset-tolerant", adversary="split-vote",
            n=6, t=1, inputs=(0, 1) * 3, seed=0, max_windows=4,
            stop_when="first")
        specs.insert(3, poison)
        return specs, 3

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_bad_spec_yields_failure_others_survive(self, workers):
        batch, poison_index = self._batch_with_poison()
        results = run_trials(batch, workers=workers)
        assert len(results) == len(batch)
        for index, item in enumerate(results):
            if index == poison_index:
                assert isinstance(item, TrialFailure)
                assert item.spec == batch[index]
            else:
                assert item == execute_trial(batch[index])


class TestRunHealthAndMerge:
    def test_clean_and_summary(self, capsys):
        from repro.cli import _print_health

        health = RunHealth()
        assert health.clean
        _print_health(health.to_jsonable())
        assert capsys.readouterr().out == ""
        health.retries += 1
        assert not health.clean
        _print_health(health.to_jsonable())
        assert capsys.readouterr().out == "run health: retries=1 failures=0\n"

    def test_merge_accumulates_and_dedupes_by_fingerprint(self):
        spec = make_specs(1)[0]
        failure = TrialFailure(spec=spec, error="InjectedFault('x')",
                               attempts=3)
        first = RunHealth(retries=2)
        first.record_failure(failure)
        block = merge_health_block(None, first)
        second = RunHealth(retries=1, pool_rebuilds=1)
        second.record_failure(failure)
        merged = merge_health_block(block, second)
        assert merged["retries"] == 3
        assert merged["pool_rebuilds"] == 1
        assert len(merged["failures"]) == 1
        assert merged["failures"][0]["attempts"] == 3

    def test_store_accumulates_health_across_resumes(self, tmp_path):
        params = {"seed": 1}
        store = RunStore.open(str(tmp_path), "EX", params)
        store.record_health(RunHealth(retries=2))
        assert store.manifest["run_health"]["retries"] == 2
        reopened = RunStore.open(str(tmp_path), "EX", params)
        reopened.record_health(RunHealth(retries=1, timeouts=1))
        block = reopened.manifest["run_health"]
        assert block["retries"] == 3
        assert block["timeouts"] == 1

    def test_clean_health_leaves_manifest_untouched(self, tmp_path):
        store = RunStore.open(str(tmp_path), "EX", {"seed": 1})
        store.record_health(None)
        store.record_health(RunHealth())
        assert store.manifest["run_health"] == empty_health_block()


class TestTornWritesThroughStore:
    def test_torn_rows_survive_and_are_counted(self, tmp_path):
        experiment = get_experiment("E8")
        params = experiment.resolve_params(
            {"cs": (0.1,), "ns": (50,), "seed": 3})
        injector = FaultInjector(ChaosConfig(seed=1, torn=1.0))
        health = RunHealth()
        store = RunStore.open(str(tmp_path), "E8", params,
                              fault_injector=injector, health=health)
        rows = experiment.run(params=params, store=store)
        store.record_health(health)
        store.finish(wall_time=0.0)

        torn = 0
        intact = []
        with open(os.path.join(store.path, "rows.jsonl")) as handle:
            for line in handle:
                try:
                    intact.append(json.loads(line))
                except json.JSONDecodeError:
                    torn += 1
        assert torn == health.torn_writes == len(rows) > 0
        assert store.manifest["run_health"]["torn_writes"] == torn
        # Every torn write was followed by an intact recovery write, so
        # a reopening store sees the complete table.
        reopened = RunStore.open(str(tmp_path), "E8", params)
        assert reopened.rows() == rows


class _KillAfter(RunStore):
    """A store that dies (like SIGKILL mid-run) after N row writes."""

    def __init__(self, *args, kill_after: int, **kwargs):
        super().__init__(*args, **kwargs)
        self._writes_left = kill_after

    def write_row(self, index, key, row):
        if self._writes_left == 0:
            raise KeyboardInterrupt("killed mid-run")
        self._writes_left -= 1
        super().write_row(index, key, row)


class TestKillResumeUnderChaos:
    def test_chaos_kill_then_resume_is_bit_identical(self, tmp_path):
        """The keystone, end to end: chaos + kill + resume == clean run."""
        experiment = get_experiment("E2")
        params = experiment.resolve_params(E2_PARAMS)
        reference = experiment.run(params=params, workers=0, backend="trial")

        # Pick (deterministically) a chaos seed whose crash pattern
        # really hits this parameter grid, so the scenario cannot be
        # vacuous.
        specs = [spec for cell in experiment.cells(params=params)
                 for spec in cell.specs]
        chaos = next(
            config for config in
            (ChaosConfig(seed=seed, crash=0.5) for seed in range(64))
            if any(FaultInjector(config).decide(spec) == CRASH
                   for spec in specs))
        policy = ExecutionPolicy(retry=FAST_RETRY, chaos=chaos)

        path = run_directory(str(tmp_path), "E2", params)
        killed_health = RunHealth()
        killed = _KillAfter(path, "E2", params, kill_after=1,
                            health=killed_health)
        with pytest.raises(KeyboardInterrupt):
            experiment.run(params=params, workers=4, store=killed,
                           policy=policy, health=killed_health)
        assert not killed.manifest["completed"]
        assert killed.row_count == 1
        # Mid-run manifest rewrites persist the live health ledger, so
        # the killed segment's recovery actions survive the kill (how
        # much was persisted depends on the debounce timing; whatever
        # made it to disk is the resume baseline).
        carried = killed.manifest.get("run_health")

        resumed_health = RunHealth()
        resumed = RunStore.open(str(tmp_path), "E2", params, workers=4,
                                health=resumed_health)
        rows = experiment.run(params=params, workers=4, store=resumed,
                              policy=policy, health=resumed_health)
        resumed.finish(wall_time=0.5)

        assert rows == reference
        # The injected crashes bit during at least one of the two
        # executions (transient faults already absorbed before the kill
        # do not recur on resume — decisions are per-attempt).
        assert not (killed_health.clean and resumed_health.clean)
        # No duplicate rows on disk, and the manifest health block holds
        # the killed segment's persisted baseline plus exactly what the
        # resumed execution recorded.
        with open(os.path.join(path, "rows.jsonl")) as handle:
            keys = [json.dumps(json.loads(line)["key"]) for line in handle]
        assert len(keys) == len(set(keys))
        if resumed_health.clean:
            expected = carried or empty_health_block()
        else:
            expected = merge_health_block(carried, resumed_health)
        assert resumed.manifest["run_health"] == expected

        # A second resume recomputes nothing and changes nothing.
        rerun = RunStore.open(str(tmp_path), "E2", params, workers=4)
        assert experiment.run(params=params, workers=4,
                              store=rerun) == reference
