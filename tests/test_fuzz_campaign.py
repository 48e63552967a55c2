"""Fuzz-campaign tests: determinism, resume, minimization, and the CLI."""

import json
import os

import pytest

from repro.cli import main
from repro.results import RunStore
from repro.runner import execute_trial
from repro.verification import (load_schedule_artifact, replay_schedule,
                                resolve_fuzz_params, run_fuzz_campaign)
from repro.verification.fuzzer import (FUZZ_EXPERIMENT, ROW_SCHEMA,
                                       fuzz_trial_spec)
from repro.verification.invariants import InvariantChecker


class TestCampaignDeterminism:
    def test_rows_bit_identical_across_worker_counts(self):
        """The acceptance bar: 200 trials at seed 0, workers 0/1/4, and a
        Bracha campaign on the step engine at workers 0/2."""
        params = resolve_fuzz_params(trials=200, seed=0, max_windows=40)
        reference = run_fuzz_campaign(params, workers=0).rows
        assert len(reference) == 200
        for workers in (1, 4):
            assert run_fuzz_campaign(params, workers=workers).rows \
                == reference
        # The step engine: Byzantine fuzzing of Bracha.
        bracha = resolve_fuzz_params(protocol="bracha", trials=12, seed=1)
        serial = run_fuzz_campaign(bracha, workers=0).rows
        assert len(serial) == 12 and serial[0]["engine"] == "step"
        assert run_fuzz_campaign(bracha, workers=2).rows == serial

    def test_trial_specs_depend_only_on_seed_and_index(self):
        params = resolve_fuzz_params(trials=5, seed=9)
        assert fuzz_trial_spec(params, 3) == fuzz_trial_spec(params, 3)
        assert fuzz_trial_spec(params, 3) != fuzz_trial_spec(params, 4)
        other = resolve_fuzz_params(trials=5, seed=10)
        assert fuzz_trial_spec(params, 3) != fuzz_trial_spec(other, 3)

    def test_rows_match_the_declared_schema(self):
        params = resolve_fuzz_params(trials=3, seed=1, max_windows=30)
        for row in run_fuzz_campaign(params, workers=0).rows:
            assert tuple(row) == ROW_SCHEMA


class TestCampaignParams:
    def test_engine_follows_the_fault_model(self):
        """The engine is derived, not chosen, and stays in the params
        (so run digests and rows keep it)."""
        assert resolve_fuzz_params(protocol="reset-tolerant",
                                   trials=1)["engine"] == "window"
        assert resolve_fuzz_params(protocol="bracha",
                                   trials=1)["engine"] == "step"
        with pytest.raises(TypeError):
            resolve_fuzz_params(trials=1, engine="step")

    def test_rejects_bad_arguments(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            resolve_fuzz_params(protocol="nope", trials=1)
        with pytest.raises(ValueError, match="trials must be positive"):
            resolve_fuzz_params(trials=0)
        with pytest.raises(ValueError, match="tolerates no faults"):
            resolve_fuzz_params(n=4, trials=1)

    def test_step_fuzz_campaign_is_clean_for_bracha(self):
        params = resolve_fuzz_params(protocol="bracha", trials=5, seed=0,
                                     max_steps=4000)
        report = run_fuzz_campaign(params, workers=0)
        assert report.clean


class TestCampaignStore:
    def test_campaign_resumes_from_the_store(self, tmp_path):
        params = resolve_fuzz_params(trials=6, seed=0, max_windows=30)
        first = RunStore.open(str(tmp_path), FUZZ_EXPERIMENT, params)
        reference = run_fuzz_campaign(params, workers=0, store=first).rows
        assert first.row_count == 6

        # Simulate an interrupted campaign: drop the last stored rows.
        rows_path = os.path.join(first.path, "rows.jsonl")
        lines = open(rows_path).read().splitlines()
        with open(rows_path, "w") as handle:
            handle.write("\n".join(lines[:3]) + "\n")

        resumed_store = RunStore.open(str(tmp_path), FUZZ_EXPERIMENT,
                                      params)
        assert resumed_store.row_count == 3
        resumed = run_fuzz_campaign(params, workers=0,
                                    store=resumed_store).rows
        assert resumed == reference

    def test_minimize_writes_replayable_artifacts(self, tmp_path,
                                                  buggy_protocol):
        params = resolve_fuzz_params(protocol=buggy_protocol, trials=8,
                                     seed=0, n=9, max_windows=30)
        store = RunStore.open(str(tmp_path), FUZZ_EXPERIMENT, params)
        report = run_fuzz_campaign(params, workers=0, store=store,
                                   minimize=True)
        assert report.findings
        finding = report.findings[0]
        assert 1 <= finding["minimized_windows"] <= 10
        artifact = os.path.join(store.path, finding["counterexample"])
        assert os.path.isfile(artifact)
        spec, schedule, saved = load_schedule_artifact(artifact)
        assert len(schedule) == finding["minimized_windows"]
        assert saved["violations"]
        assert not InvariantChecker().check(execute_trial(spec).trace).ok
        # The artifact records the fuzz trial's own context.
        trial = fuzz_trial_spec(params, finding["trial"])
        assert (spec.protocol, spec.n, spec.t, spec.inputs, spec.seed) == \
            (trial.protocol, trial.n, trial.t, trial.inputs, trial.seed)
        assert replay_schedule(trial, schedule).outputs == \
            execute_trial(spec).outputs

    def test_resumed_campaign_minimizes_cached_findings(self, tmp_path,
                                                        buggy_protocol):
        params = resolve_fuzz_params(protocol=buggy_protocol, trials=4,
                                     seed=0, n=9, max_windows=30)
        plain = RunStore.open(str(tmp_path), FUZZ_EXPERIMENT, params)
        assert run_fuzz_campaign(params, workers=0, store=plain).findings
        # Everything is cached now; --minimize still shrinks the findings.
        resumed = RunStore.open(str(tmp_path), FUZZ_EXPERIMENT, params)
        report = run_fuzz_campaign(params, workers=0, store=resumed,
                                   minimize=True)
        for finding in report.findings:
            assert finding["minimized_windows"] is not None
            assert os.path.isfile(
                os.path.join(resumed.path, finding["counterexample"]))


class TestFuzzCli:
    def test_clean_campaign_exits_zero_and_resumes(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        argv = ["fuzz", "--trials", "10", "--workers", "0", "--out", out]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 cached + 10 computed" in first
        assert "no invariant violations in 10 trials" in first
        assert main(argv) == 0
        assert "10 cached + 0 computed" in capsys.readouterr().out

    def test_violating_campaign_exits_one_and_reports(self, tmp_path,
                                                      capsys,
                                                      buggy_protocol):
        out = str(tmp_path / "results")
        assert main(["fuzz", "--trials", "5", "--workers", "0",
                     "--protocol", buggy_protocol, "--n", "9",
                     "--minimize", "--out", out]) == 1
        printed = capsys.readouterr().out
        assert "violating trial(s)" in printed
        assert "agreement" in printed
        assert "counterexamples/trial-" in printed

    def test_no_store_mode_persists_nothing(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--trials", "4", "--workers", "0",
                     "--no-store"]) == 0
        assert not os.path.exists(tmp_path / "results")

    def test_bad_fuzz_arguments_exit_two(self, capsys):
        assert main(["fuzz", "--protocol", "nope", "--no-store"]) == 2
        assert "unknown protocol" in capsys.readouterr().err
        assert main(["fuzz", "--trials", "-3", "--no-store"]) == 2
        assert "positive" in capsys.readouterr().err
        # Over-large fault bounds are a usage error, not a worker
        # traceback.
        assert main(["fuzz", "--n", "5", "--t", "7", "--no-store"]) == 2
        assert "t < n" in capsys.readouterr().err

    def test_resumed_minimize_keeps_manifest_complete(self, tmp_path,
                                                      capsys,
                                                      buggy_protocol):
        out = str(tmp_path / "results")
        base = ["fuzz", "--trials", "4", "--workers", "0",
                "--protocol", buggy_protocol, "--n", "9", "--out", out]
        assert main(base) == 1
        capsys.readouterr()
        # Resume the completed campaign with --minimize: rows are all
        # cached, but minimization rewrites them — the manifest must end
        # up completed again, not stuck partial.
        assert main(base + ["--minimize"]) == 1
        capsys.readouterr()
        manifests = [os.path.join(root, name)
                     for root, _, files in os.walk(out)
                     for name in files if name == "manifest.json"]
        assert len(manifests) == 1
        manifest = json.load(open(manifests[0]))
        assert manifest["completed"] is True
        assert manifest["wall_time_seconds"] is not None

    def test_show_renders_a_fuzz_run(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["fuzz", "--trials", "3", "--workers", "0",
                     "--out", out]) == 0
        capsys.readouterr()
        assert main(["show", "fuzz", "--out", out]) == 0
        rendered = capsys.readouterr().out
        assert "fuzz run" in rendered
        assert "violations" in rendered

    def test_manifest_records_the_campaign(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["fuzz", "--trials", "3", "--workers", "0",
                     "--seed", "5", "--out", out]) == 0
        capsys.readouterr()
        manifests = [os.path.join(root, name)
                     for root, _, files in os.walk(out)
                     for name in files if name == "manifest.json"]
        assert len(manifests) == 1
        manifest = json.load(open(manifests[0]))
        assert manifest["experiment"] == FUZZ_EXPERIMENT
        assert manifest["seed"] == 5
        assert manifest["completed"] is True
