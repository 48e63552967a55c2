"""CLI tests for `repro search`, `repro replay` and the list flags."""

import hashlib
import json
import os


from repro.cli import main
from repro.results import RunStore
from repro.runner import TrialSpec
from repro.search import SEARCH_EXPERIMENT, resolve_search_params
from repro.verification import load_schedule_artifact, save_schedule_artifact
from repro.simulation.windows import WindowSpec

# A counterexample written by `repro fuzz --protocol eager-bug --trials 6
# --seed 2 --minimize --workers 0` (trial 0): one window with a reset.
GOLDEN_COUNTEREXAMPLE = os.path.join(os.path.dirname(__file__), "golden",
                                     "eager-bug-counterexample.json")

# sha256 of the best-schedule.json that _search_args writes.
BEST_SCHEDULE_SHA256 = (
    "de93aaa9af341896598cdb938ad2fa236070cbdb48c7d89754664be2ed666d10")


def _search_args(out, extra=()):
    return ["search", "--generations", "3", "--population", "4",
            "--windows", "40", "--workers", "0", "--seed", "3",
            "--out", out, *extra]


class TestSearchCli:
    def test_campaign_runs_resumes_and_shows(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(_search_args(out)) == 0
        first = capsys.readouterr().out
        assert "0 cached + 12 computed" in first
        assert "best score:" in first
        assert "best-schedule.json" in first
        # Rerunning the identical campaign resumes fully from cache.
        assert main(_search_args(out)) == 0
        assert "12 cached + 0 computed" in capsys.readouterr().out
        assert main(["show", "search", "--out", out]) == 0
        rendered = capsys.readouterr().out
        assert "search run" in rendered
        assert "generation" in rendered

    def test_cached_rerun_keeps_the_stored_wall_time(self, tmp_path,
                                                     capsys):
        out = str(tmp_path / "results")
        assert main(_search_args(out)) == 0
        capsys.readouterr()
        params = resolve_search_params(generations=3, population=4,
                                       windows=40, seed=3)
        manifest_path = os.path.join(
            RunStore.open(out, SEARCH_EXPERIMENT, params).path,
            "manifest.json")
        manifest = json.load(open(manifest_path))
        assert manifest["completed"] is True
        # A sentinel wall time no real run produces: a fully cached rerun
        # computes nothing, so it must keep the stored value.
        manifest["wall_time_seconds"] = 1234.5
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        assert main(_search_args(out)) == 0
        assert "12 cached + 0 computed" in capsys.readouterr().out
        rerun = json.load(open(manifest_path))
        assert rerun["completed"] is True
        assert rerun["wall_time_seconds"] == 1234.5

    def test_campaign_artifact_replays_clean(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(_search_args(out)) == 0
        capsys.readouterr()
        params = resolve_search_params(generations=3, population=4,
                                       windows=40, seed=3)
        store = RunStore.open(out, SEARCH_EXPERIMENT, params)
        artifact = os.path.join(store.path, "best-schedule.json")
        assert os.path.isfile(artifact)
        assert main(["replay", artifact]) == 0
        printed = capsys.readouterr().out
        assert "invariant verdict: OK" in printed

    def test_best_schedule_bytes_are_pinned(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(_search_args(out)) == 0
        params = resolve_search_params(generations=3, population=4,
                                       windows=40, seed=3)
        store = RunStore.open(out, SEARCH_EXPERIMENT, params)
        with open(os.path.join(store.path, "best-schedule.json"),
                  "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert digest == BEST_SCHEDULE_SHA256

    def test_no_store_mode_persists_nothing(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["search", "--generations", "2", "--population", "2",
                     "--windows", "20", "--workers", "0",
                     "--no-store"]) == 0
        assert not os.path.exists(tmp_path / "results")

    def test_violating_search_exits_one(self, tmp_path, capsys,
                                        buggy_protocol):
        out = str(tmp_path / "results")
        assert main(["search", "--protocol", buggy_protocol, "--n", "9",
                     "--objective", "invariant-violation",
                     "--generations", "2", "--population", "4",
                     "--windows", "12", "--workers", "0",
                     "--out", out]) == 1
        printed = capsys.readouterr().out
        assert "invariant-violating candidate(s)" in printed
        assert "counterexamples/gen-" in printed

    def test_bad_search_arguments_exit_two(self, capsys):
        assert main(["search", "--strategy", "nope", "--no-store"]) == 2
        assert "unknown search strategy" in capsys.readouterr().err
        assert main(["search", "--objective", "nope", "--no-store"]) == 2
        assert "unknown objective" in capsys.readouterr().err
        assert main(["search", "--n", "4", "--no-store"]) == 2
        assert "tolerates no faults" in capsys.readouterr().err

    def test_unsupported_objective_is_a_usage_error(self, tmp_path,
                                                    capsys):
        # vote-margin needs the estimate hook Bracha does not expose;
        # this must be a usage error, not a traceback after the run
        # directory was already created.
        out = str(tmp_path / "results")
        assert main(["search", "--objective", "vote-margin",
                     "--protocol", "bracha", "--n", "7",
                     "--out", out]) == 2
        assert "estimate_from_fingerprint" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestReplayCli:
    def test_replays_a_violating_counterexample(self, tmp_path, capsys,
                                                buggy_protocol):
        # A hand-made counterexample: the eager-bug protocol violates
        # agreement under one benign full-delivery window.
        n = 9
        spec = TrialSpec(protocol=buggy_protocol, adversary="benign", n=n,
                         t=1, inputs=tuple(pid % 2 for pid in range(n)),
                         seed=1)
        path = str(tmp_path / "cex.json")
        save_schedule_artifact(path, spec, [WindowSpec.full_delivery(n)],
                               ["agreement: conflicting decisions"])
        assert main(["replay", path]) == 1
        printed = capsys.readouterr().out
        assert "invariant verdict: VIOLATED" in printed
        assert "agreement" in printed

    def test_golden_counterexample_still_replays(self, capsys,
                                                 buggy_protocol):
        with open(GOLDEN_COUNTEREXAMPLE) as handle:
            artifact = json.load(handle)
        assert main(["replay", GOLDEN_COUNTEREXAMPLE]) == 1
        printed = capsys.readouterr().out.splitlines()
        assert printed == [
            "== replay: 1 windows of eager-bug (n=9, t=1, "
            "seed 2359018731) ==",
            "decided: True  windows: 1  resets: 1  outputs: 111101010",
            "invariant verdict: VIOLATED — "
            + "; ".join(artifact["violations"])]

    def test_golden_counterexample_is_rewritten_byte_for_byte(
            self, tmp_path):
        spec, schedule, artifact = load_schedule_artifact(
            GOLDEN_COUNTEREXAMPLE)
        path = str(tmp_path / "trial-0.json")
        save_schedule_artifact(path, spec, schedule, artifact["violations"])
        with open(path, "rb") as rewritten, \
                open(GOLDEN_COUNTEREXAMPLE, "rb") as golden:
            assert rewritten.read() == golden.read()

    def test_missing_and_malformed_artifacts_exit_two(self, tmp_path,
                                                      capsys):
        assert main(["replay", str(tmp_path / "absent.json")]) == 2
        assert "no schedule artifact" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not": "an artifact"}))
        assert main(["replay", str(bad)]) == 2
        assert "not a schedule artifact" in capsys.readouterr().err
        # Valid JSON that is not an object (e.g. a rows.jsonl line
        # pasted by mistake) is a usage error too, not a traceback.
        not_object = tmp_path / "list.json"
        not_object.write_text("[]")
        assert main(["replay", str(not_object)]) == 2
        assert "not a schedule artifact" in capsys.readouterr().err

    def test_artifact_naming_an_unknown_system_exits_two(self, tmp_path,
                                                         capsys):
        # Well-formed artifacts whose protocol is not registered, or
        # whose (n, t, inputs) no engine accepts, are usage errors too.
        with open(GOLDEN_COUNTEREXAMPLE) as handle:
            golden = json.load(handle)
        cases = [({"protocol": "nope"},
                  ["unknown protocol 'nope'", "known protocols: ",
                   "reset-tolerant"]),
                 ({"protocol": "reset-tolerant", "t": 5}, ["need T3 > 0"]),
                 ({"protocol": "reset-tolerant", "inputs": [0, 1]},
                  ["expected 9 input bits, got 2"])]
        for index, (edits, expected) in enumerate(cases):
            path = tmp_path / f"edited-{index}.json"
            path.write_text(json.dumps({**golden, **edits}))
            assert main(["replay", str(path)]) == 2
            err = capsys.readouterr().err
            assert "cannot be replayed" in err
            for fragment in expected:
                assert fragment in err


class TestListFlags:
    def test_lists_adversaries_and_strategies(self, capsys):
        assert main(["list", "--adversaries"]) == 0
        printed = capsys.readouterr().out
        assert "replay-schedule" in printed
        assert "schedule-fuzzer" in printed
        assert "equivocate" in printed

    def test_lists_protocols_with_fault_models(self, capsys):
        assert main(["list", "--protocols"]) == 0
        printed = capsys.readouterr().out
        assert "reset-tolerant" in printed
        assert "strongly adaptive" in printed
        assert "bracha" in printed

    def test_e9_is_registered_and_documented(self, capsys):
        assert main(["list"]) == 0
        assert "adversary-search" in capsys.readouterr().out
        assert main(["list", "--doc"]) == 0
        doc = capsys.readouterr().out
        assert "## E9" in doc
