"""Backend plumbing: CLI flag, manifest field, bench-gate throughput.

The batched backend must be a pure go-faster switch — the default of
``run``, whose ``--backend trial`` forces the per-trial oracle (``fuzz``
and ``search`` specs never batch, so they take no flag), recorded in the
run manifest so resumed runs never silently mix backends, surfaced by
``repro show``, and guarded by the bench trajectory's throughput gate.
"""

import importlib.util
import json
import os

import pytest

from repro.cli import main
from repro.results import RunStore

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PARAMS = {"ns": (12,), "trials": 1, "seed": 0, "max_windows": 3000}


def _manifest(out, name="E1"):
    from repro.results.store import latest_run
    run_dir = latest_run(str(out), name)
    with open(os.path.join(run_dir, "manifest.json")) as handle:
        return json.load(handle)


# -- CLI ----------------------------------------------------------------

def test_run_accepts_backend_flag(tmp_path, capsys):
    assert main(["run", "E1", "--quick", "--workers", "0", "--no-store",
                 "--backend", "batched"]) == 0
    batched_out = capsys.readouterr().out
    assert main(["run", "E1", "--quick", "--workers", "0", "--no-store",
                 "--backend", "trial"]) == 0
    trial_out = capsys.readouterr().out
    # Identical tables: the backend is unobservable through results.
    strip = [line for line in batched_out.splitlines()
             if not line.startswith("==")]
    assert strip == [line for line in trial_out.splitlines()
                     if not line.startswith("==")]


def test_run_rejects_unknown_backend(capsys):
    with pytest.raises(SystemExit):
        main(["run", "E1", "--no-store", "--backend", "gpu"])
    assert "--backend" in capsys.readouterr().err


def test_manifest_records_backend(tmp_path, capsys):
    assert main(["run", "E1", "--quick", "--workers", "0",
                 "--out", str(tmp_path), "--backend", "batched"]) == 0
    capsys.readouterr()
    assert _manifest(tmp_path)["backend"] == "batched"


def test_default_resume_of_a_trial_run_marks_mixed(tmp_path, capsys):
    assert main(["run", "E1", "--quick", "--workers", "0",
                 "--out", str(tmp_path), "--backend", "trial"]) == 0
    assert main(["run", "E1", "--quick", "--workers", "0",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _manifest(tmp_path)["backend"] == "mixed"


def test_resume_under_other_backend_marks_mixed(tmp_path, capsys):
    assert main(["run", "E1", "--quick", "--workers", "0",
                 "--out", str(tmp_path), "--backend", "batched"]) == 0
    assert main(["run", "E1", "--quick", "--workers", "0",
                 "--out", str(tmp_path), "--backend", "trial"]) == 0
    capsys.readouterr()
    assert _manifest(tmp_path)["backend"] == "mixed"
    assert main(["show", "E1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "backend: mixed" in out


def test_show_surfaces_backend(tmp_path, capsys):
    assert main(["run", "E1", "--quick", "--workers", "0",
                 "--out", str(tmp_path), "--backend", "batched"]) == 0
    capsys.readouterr()
    assert main(["show", "E1", "--out", str(tmp_path)]) == 0
    assert "backend: batched" in capsys.readouterr().out


# -- the store contract directly ----------------------------------------

def test_store_keeps_backend_on_readonly_open(tmp_path):
    first = RunStore.open(str(tmp_path), "E1", PARAMS, backend="batched")
    first.finish(0.1)
    # A backend-less constructor (load_run's path) keeps the record.
    reread = RunStore(first.path, "E1", PARAMS)
    assert reread.backend == "batched"


def test_store_same_backend_resume_stays_unmixed(tmp_path):
    RunStore.open(str(tmp_path), "E1", PARAMS, backend="batched")
    again = RunStore.open(str(tmp_path), "E1", PARAMS, backend="batched")
    assert again.manifest["backend"] == "batched"


def test_store_mixed_is_sticky(tmp_path):
    RunStore.open(str(tmp_path), "E1", PARAMS, backend="batched")
    RunStore.open(str(tmp_path), "E1", PARAMS, backend="trial")
    final = RunStore.open(str(tmp_path), "E1", PARAMS, backend="trial")
    assert final.manifest["backend"] == "mixed"


# -- fuzz / search never batch, so they record no backend --------------

def test_fuzz_records_no_backend(tmp_path, capsys):
    assert main(["fuzz", "--trials", "4", "--out", str(tmp_path),
                 "--workers", "0"]) in (0, 1)
    capsys.readouterr()
    assert _manifest(tmp_path, "fuzz")["backend"] is None


def test_search_records_no_backend(tmp_path, capsys):
    assert main(["search", "--generations", "1", "--population", "2",
                 "--windows", "20", "--out", str(tmp_path),
                 "--workers", "0", "--no-verify"]) in (0, 1)
    capsys.readouterr()
    assert _manifest(tmp_path, "search")["backend"] is None


def test_campaign_entry_points_take_no_backend():
    from repro.search.campaign import run_search_campaign
    from repro.verification.fuzzer import run_fuzz_campaign

    for entry in (run_fuzz_campaign, run_search_campaign):
        with pytest.raises(TypeError, match="backend"):
            entry({}, backend="batched")


# -- the bench gate -----------------------------------------------------

def _bench_record():
    path = os.path.join(REPO_ROOT, "scripts", "bench_record.py")
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_gates_on_mean_seconds():
    bench = _bench_record()
    previous = {"b": {"mean_seconds": 1.0}}
    assert bench.compare(previous, {"b": {"mean_seconds": 1.1}}, 20.0) \
        == []
    slow = bench.compare(previous, {"b": {"mean_seconds": 1.5}}, 20.0)
    assert len(slow) == 1 and "b" in slow[0]


def test_compare_gates_on_throughput_extra_info():
    bench = _bench_record()
    previous = {"b": {"mean_seconds": 1.0,
                      "extra_info": {"trials_per_sec": 1000.0,
                                     "trials": 512}}}
    # Throughput held: no regression even though mean is absent.
    ok = {"b": {"mean_seconds": 1.0,
                "extra_info": {"trials_per_sec": 990.0, "trials": 512}}}
    assert bench.compare(previous, ok, 20.0) == []
    # Throughput collapsed: gate fires on the rate, not the mean.
    bad = {"b": {"mean_seconds": 1.0,
                 "extra_info": {"trials_per_sec": 500.0, "trials": 512}}}
    found = bench.compare(previous, bad, 20.0)
    assert len(found) == 1
    assert "trials_per_sec" in found[0]
    # Non-rate and unshared keys never fire.
    odd = {"b": {"mean_seconds": 1.0,
                 "extra_info": {"trials": 1, "other_per_sec": 1.0}}}
    assert bench.compare(previous, odd, 20.0) == []


def test_compare_names_both_machines_on_each_regression(tmp_path):
    bench = _bench_record()
    (tmp_path / "BENCH_5.json").write_text(json.dumps(
        {"index": 5, "machine": "Xeon @ 2.10GHz",
         "benchmarks": {"b": {"mean_seconds": 1.0,
                              "extra_info": {"trials_per_sec": 100.0}}}}))
    machines = bench.recorded_machines(str(tmp_path))
    assert machines == {"BENCH_5.json": "Xeon @ 2.10GHz"}
    _, latest = bench.find_previous(str(tmp_path))
    previous = {name: stats for name, (stats, _) in latest.items()}
    origins = {name: (source, machines[source])
               for name, (_, source) in latest.items()}
    slow = {"b": {"mean_seconds": 2.0, "extra_info": {"trials_per_sec": 50.0}}}
    found = bench.compare(previous, slow, 20.0, origins=origins,
                          machine="EPYC 7B13")
    assert len(found) == 2
    for line in found:
        assert line.endswith("[BENCH_5.json recorded on Xeon @ 2.10GHz; "
                             "this run on EPYC 7B13]")
    # Same threshold, same verdicts, with or without the annotation.
    assert len(bench.compare(previous, slow, 20.0)) == 2
    assert bench.compare(previous, {"b": {"mean_seconds": 1.1}}, 20.0,
                         origins=origins, machine="EPYC 7B13") == []


def test_compare_ignores_non_numeric_rates():
    bench = _bench_record()
    previous = {"b": {"extra_info": {"x_per_sec": "fast"}}}
    current = {"b": {"extra_info": {"x_per_sec": 1.0}}}
    assert bench.compare(previous, current, 20.0) == []


def test_find_previous_takes_each_benchmark_from_its_latest_file(tmp_path):
    bench = _bench_record()

    def write(index, benchmarks):
        (tmp_path / f"BENCH_{index}.json").write_text(
            json.dumps({"index": index, "benchmarks": benchmarks}))

    write(5, {"batched": {"mean_seconds": 1.0},
              "shared": {"mean_seconds": 9.0}})
    write(6, {"shared": {"mean_seconds": 2.0}})
    write(7, {"telemetry": {"mean_seconds": 3.0}})
    (tmp_path / "BENCH_notes.json").write_text("{}")
    index, latest = bench.find_previous(str(tmp_path))
    assert index == 7
    assert latest == {"batched": ({"mean_seconds": 1.0}, "BENCH_5.json"),
                      "shared": ({"mean_seconds": 2.0}, "BENCH_6.json"),
                      "telemetry": ({"mean_seconds": 3.0}, "BENCH_7.json")}
    # The batched point in BENCH_5 still gates, though BENCH_7 is newer.
    previous = {name: stats for name, (stats, _) in latest.items()}
    slow = bench.compare(previous, {"batched": {"mean_seconds": 1.5}}, 20.0)
    assert len(slow) == 1 and slow[0].startswith("batched")


def test_find_previous_without_trajectory(tmp_path):
    assert _bench_record().find_previous(str(tmp_path)) == (None, {})
