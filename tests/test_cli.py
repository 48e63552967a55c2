"""CLI tests: argument handling, run/show round-trips, EXPERIMENTS.md sync."""

import json
import os
import re

import pytest

import repro
from repro.cli import main, render_registry_doc
from repro.experiments import available_experiments

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPERIMENTS_MD = os.path.join(REPO_ROOT, "EXPERIMENTS.md")

E3_ARGS = ["--set", "ns=(8,)", "--set", "samples=2",
           "--set", "separation_trials=2"]


def test_experiments_md_in_sync():
    """EXPERIMENTS.md is generated; regenerate with
    ``python -m repro list --doc > EXPERIMENTS.md`` after editing the
    registry."""
    with open(EXPERIMENTS_MD) as handle:
        on_disk = handle.read()
    assert on_disk == render_registry_doc()


def test_doc_covers_every_experiment():
    doc = render_registry_doc()
    for experiment in available_experiments():
        assert f"## {experiment.name} — {experiment.title}" in doc
        assert experiment.slug in doc


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for experiment in available_experiments():
        assert experiment.name in out
        assert experiment.slug in out


def test_list_doc_prints_the_document(capsys):
    assert main(["list", "--doc"]) == 0
    assert capsys.readouterr().out == render_registry_doc()


def test_run_requires_experiment_or_all(capsys):
    assert main(["run"]) == 2
    assert "--all" in capsys.readouterr().err


def test_run_unknown_experiment_fails_cleanly(capsys):
    assert main(["run", "E99", "--no-store"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_unknown_parameter_fails_cleanly(capsys):
    assert main(["run", "E8", "--no-store", "--set", "bogus=1"]) == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_run_bad_set_syntax_fails_cleanly(capsys):
    assert main(["run", "E8", "--no-store", "--set", "novalue"]) == 2
    assert "key=value" in capsys.readouterr().err


def test_run_non_literal_set_value_fails_cleanly(capsys):
    assert main(["run", "E2", "--no-store", "--set", "trials=3x"]) == 2
    assert "not a Python literal" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "E2", "--quick", "--workers", "-1"],
    ["fuzz", "--trials", "2", "--workers", "-3"],
    ["search", "--generations", "1", "--population", "2",
     "--workers", "-1"],
])
def test_negative_workers_is_a_usage_error(tmp_path, capsys, argv):
    """Rejected before the run store opens: exit 2, no run directory."""
    out_dir = tmp_path / "results"
    assert main(argv + ["--out", str(out_dir)]) == 2
    assert "--workers must be >= 0" in capsys.readouterr().err
    assert not out_dir.exists()


def test_bad_workers_environment_is_a_usage_error(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "-2")
    out_dir = tmp_path / "results"
    assert main(["run", "E2", "--quick", "--out", str(out_dir)]) == 2
    assert "REPRO_WORKERS must be >= 0" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [["run", "E2", "--profile"],
                                  ["fuzz", "--engine", "step"]])
def test_removed_flags_are_argparse_errors(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_pyproject_version_matches_the_package():
    """The manifest's ``package_version`` is what pyproject declares."""
    with open(os.path.join(REPO_ROOT, "pyproject.toml")) as handle:
        declared = re.search(r'^version = "([^"]+)"', handle.read(),
                             re.MULTILINE).group(1)
    assert declared == repro.__version__


def test_run_no_store_prints_table(capsys):
    assert main(["run", "E8", "--no-store", "--seed", "3",
                 "--set", "cs=(0.1,)", "--set", "ns=(50, 100)"]) == 0
    out = capsys.readouterr().out
    assert "E8: Theorem 5 constants" in out
    assert "predicted_windows" in out


def test_run_by_slug(capsys):
    assert main(["run", "constants", "--no-store",
                 "--set", "cs=(0.1,)", "--set", "ns=(50,)"]) == 0
    assert "E8" in capsys.readouterr().out


def test_run_writes_store_and_resumes(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    assert main(["run", "E3", "--quick", "--out", out_dir] + E3_ARGS) == 0
    first = capsys.readouterr().out
    assert "0 cached + 1 computed" in first

    run_dirs = [os.path.join(root, name)
                for root, dirs, files in os.walk(out_dir)
                for name in files if name == "manifest.json"]
    assert len(run_dirs) == 1
    manifest = json.load(open(run_dirs[0]))
    assert manifest["experiment"] == "E3"
    assert manifest["completed"] is True
    assert os.path.exists(os.path.join(os.path.dirname(run_dirs[0]),
                                       "rows.jsonl"))

    # Rerun of the same configuration resumes (all cells cached) and
    # keeps the originally recorded wall time instead of ~0s.
    wall_before = json.load(open(run_dirs[0]))["wall_time_seconds"]
    assert main(["run", "E3", "--quick", "--out", out_dir] + E3_ARGS) == 0
    second = capsys.readouterr().out
    assert "1 cached + 0 computed" in second
    assert json.load(open(run_dirs[0]))["wall_time_seconds"] == wall_before


def test_run_set_negative_int_coerces(capsys):
    # Negative literals survive both argparse and ast.literal_eval.
    assert main(["run", "E8", "--no-store", "--set", "seed=-7",
                 "--set", "cs=(0.1,)", "--set", "ns=(50,)"]) == 0
    assert "E8" in capsys.readouterr().out


def test_run_set_tuple_and_list_values_coerce(capsys):
    assert main(["run", "E8", "--no-store", "--set", "cs=(0.1, 0.2)",
                 "--set", "ns=[50, 100]"]) == 0
    out = capsys.readouterr().out
    assert out.count("E8 ") >= 4  # 2 cs x 2 ns curve rows


def test_run_set_empty_value_fails_cleanly(capsys):
    assert main(["run", "E8", "--no-store", "--set", "cs="]) == 2
    assert "not a Python literal" in capsys.readouterr().err


def test_run_set_unknown_key_reports_known_parameters(capsys):
    assert main(["run", "E8", "--no-store", "--set", "bogus=1"]) == 2
    err = capsys.readouterr().err
    assert "unknown parameter" in err
    assert "known parameters" in err


def test_run_repeated_set_last_assignment_wins(capsys):
    assert main(["run", "E8", "--no-store", "--set", "ns=(50, 100)",
                 "--set", "cs=(0.1,)", "--set", "ns=(50,)"]) == 0
    out = capsys.readouterr().out
    assert "50" in out and " 100 " not in out


def test_show_on_non_run_directory_fails_cleanly(tmp_path, capsys):
    assert main(["show", str(tmp_path)]) == 2
    assert "not a run directory" in capsys.readouterr().err


def test_show_on_missing_run_id_reports_the_path(capsys):
    # A path-like target that does not exist is a missing run id, not an
    # unknown experiment name.
    assert main(["show", "results/E1/0123456789ab"]) == 2
    err = capsys.readouterr().err
    assert "no run directory at" in err
    assert "unknown experiment" not in err


def test_show_on_unknown_name_still_reports_experiments(capsys):
    assert main(["show", "E99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_show_renders_unregistered_experiment_manifests(tmp_path, capsys):
    # Stored runs of pseudo-experiments (e.g. fuzz campaigns) render
    # generically instead of crashing on the registry lookup.
    from repro.results import RunStore

    store = RunStore.open(str(tmp_path), "custom-campaign", {"seed": 1})
    store.write_row(0, ("custom-campaign", 0), {"trial": 0, "ok": True})
    store.finish(0.1)
    assert main(["show", store.path]) == 0
    out = capsys.readouterr().out
    assert "custom-campaign" in out
    assert "trial" in out


def test_show_latest_run_and_run_dir(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    assert main(["run", "E3", "--quick", "--out", out_dir] + E3_ARGS) == 0
    capsys.readouterr()

    assert main(["show", "E3", "--out", out_dir]) == 0
    by_name = capsys.readouterr().out
    assert "complete" in by_name
    assert "separation_holds" in by_name

    run_dir = os.path.dirname(next(
        os.path.join(root, name)
        for root, dirs, files in os.walk(out_dir)
        for name in files if name == "manifest.json"))
    assert main(["show", run_dir]) == 0
    by_path = capsys.readouterr().out
    assert "separation_holds" in by_path


def test_show_without_stored_runs_errors(tmp_path, capsys):
    assert main(["show", "E3", "--out", str(tmp_path / "empty")]) == 1
    assert "no stored runs" in capsys.readouterr().err


def test_show_renders_finalize_rows(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    assert main(["run", "E2", "--out", out_dir, "--seed", "5",
                 "--set", "ns=(12, 16)", "--set", "trials=1",
                 "--workers", "0"]) == 0
    capsys.readouterr()
    assert main(["show", "E2", "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "E2-fit" in out  # synthetic fit row recomputed on render


E2_TINY_ARGS = ["--set", "ns=(12,)", "--set", "trials=1",
                "--set", "use_resets=True", "--seed", "9",
                "--workers", "0"]


def _only_run_dir(out_dir):
    return os.path.dirname(next(
        os.path.join(root, name)
        for root, dirs, files in os.walk(out_dir)
        for name in files if name == "manifest.json"))


def test_run_records_telemetry_and_reads_it_back(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    assert main(["run", "E2", "--out", out_dir] + E2_TINY_ARGS) == 0
    capsys.readouterr()
    run_dir = _only_run_dir(out_dir)

    from repro.telemetry import TELEMETRY_NAME, read_events
    events = read_events(os.path.join(run_dir, TELEMETRY_NAME))
    names = {event.get("name") for event in events
             if event.get("kind") == "span"}
    assert {"campaign", "cell", "trial"} <= names
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["telemetry"]["spans"] > 0

    assert main(["show", "E2", "--out", out_dir, "--timing"]) == 0
    out = capsys.readouterr().out
    assert "telemetry:" in out
    assert "trial timing (telemetry, ms)" in out
    assert "slowest trial:" in out

    assert main(["top", "E2", "--out", out_dir, "--once"]) == 0
    out = capsys.readouterr().out
    assert "== top:" in out and "completed" in out

    assert main(["query",
                 "SELECT name, count(*) AS n FROM spans "
                 "GROUP BY name ORDER BY name",
                 "--out", out_dir, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "campaign" in [row[0] for row in payload["rows"]]


def test_run_no_telemetry_leaves_no_trace(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    assert main(["run", "E2", "--out", out_dir, "--no-telemetry"]
                + E2_TINY_ARGS) == 0
    capsys.readouterr()
    run_dir = _only_run_dir(out_dir)
    assert not os.path.exists(os.path.join(run_dir, "telemetry.jsonl"))
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert "telemetry" not in manifest

    assert main(["show", "E2", "--out", out_dir, "--timing"]) == 0
    assert "no trial timing recorded" in capsys.readouterr().out


def test_show_timing_totals_batch_spans(tmp_path, capsys):
    """A run whose trials all ran batched still has timing to show."""
    from repro.telemetry import TELEMETRY_NAME, read_events

    out_dir = str(tmp_path / "results")
    assert main(["run", "E2", "--quick", "--workers", "0", "--backend",
                 "batched", "--out", out_dir]) == 0
    capsys.readouterr()
    events = read_events(os.path.join(_only_run_dir(out_dir),
                                      TELEMETRY_NAME))
    names = {event.get("name") for event in events
             if event.get("kind") == "span"}
    assert "batch" in names and "trial" not in names

    assert main(["show", "E2", "--out", out_dir, "--timing"]) == 0
    out = capsys.readouterr().out
    assert "batch timing (telemetry, ms)" in out
    assert "--no-telemetry" not in out
    assert "reset-tolerant" in out  # the signature column
    for column in ("deliver_ms", "tally_ms", "decide_ms"):
        assert column in out


def test_telemetry_flag_never_changes_rows(tmp_path, capsys):
    plain_dir = str(tmp_path / "plain")
    traced_dir = str(tmp_path / "traced")
    assert main(["run", "E2", "--out", plain_dir, "--no-telemetry"]
                + E2_TINY_ARGS) == 0
    assert main(["run", "E2", "--out", traced_dir] + E2_TINY_ARGS) == 0
    capsys.readouterr()

    def stored_rows(out_dir):
        with open(os.path.join(_only_run_dir(out_dir),
                               "rows.jsonl")) as handle:
            return [json.loads(line) for line in handle]

    assert stored_rows(plain_dir) == stored_rows(traced_dir)
