"""Benchmark the results-store scan paths behind `repro query`.

Builds one synthetic run of many rows, then times reading it back
through the line-by-line ``rows.jsonl`` parse, plus a full
``run_query`` aggregate over the mounted store.  Besides wall time each
benchmark records its ``rows_scanned_per_sec`` as ``extra_info``, the
scan-throughput number the performance trajectory
(`scripts/bench_record.py`, ``BENCH_<n>.json``) tracks.
"""

import json
import os

import pytest

from repro.results.query import run_query
from repro.results.store import read_jsonl_records

ROWS = 20_000


@pytest.fixture(scope="module")
def synthetic_root(tmp_path_factory):
    """A results root holding one run of ``ROWS`` rows."""
    root = tmp_path_factory.mktemp("bench-query")
    run_dir = root / "SYNTH" / "0123456789ab"
    run_dir.mkdir(parents=True)
    with open(run_dir / "rows.jsonl", "w") as handle:
        for i in range(ROWS):
            record = {"index": i, "key": ["SYNTH", i % 64, i],
                      "row": {"n": 12 + (i % 5), "trial": i,
                              "undecided": (i * 2654435761) % 97,
                              "rate": (i % 1000) / 1000.0,
                              "decided": i % 3 == 0}}
            handle.write(json.dumps(record, allow_nan=False) + "\n")
    manifest = {"experiment": "SYNTH", "params": {"seed": 0}, "seed": 0,
                "workers": 0, "backend": "trial", "completed": True,
                "wall_time_seconds": 1.0, "row_count": ROWS,
                "run_health": None}
    with open(run_dir / "manifest.json", "w") as handle:
        json.dump(manifest, handle, allow_nan=False)
    return str(root), str(run_dir)


@pytest.mark.benchmark(group="store-scan")
def test_bench_scan_jsonl(benchmark, synthetic_root):
    """The baseline: the tolerant line-by-line rows.jsonl parse."""
    _, run_dir = synthetic_root
    rows_path = os.path.join(run_dir, "rows.jsonl")

    records = benchmark.pedantic(read_jsonl_records, args=(rows_path,),
                                 iterations=1, rounds=5)

    assert len(records) == ROWS
    benchmark.extra_info["rows"] = ROWS
    benchmark.extra_info["rows_scanned_per_sec"] = \
        ROWS / benchmark.stats.stats.mean


@pytest.mark.benchmark(group="store-scan")
def test_bench_query_aggregate(benchmark, synthetic_root):
    """Mount + SQL aggregate over every stored row (`repro query`)."""
    root, _ = synthetic_root
    sql = ("SELECT n, COUNT(*) AS trials, AVG(undecided) AS mean_undecided "
           "FROM rows GROUP BY n ORDER BY n")

    result = benchmark.pedantic(run_query, args=(root, sql),
                                iterations=1, rounds=3)

    assert len(result.rows) == 5
    assert sum(row[1] for row in result.rows) == ROWS
    benchmark.extra_info["rows"] = ROWS
    benchmark.extra_info["rows_scanned_per_sec"] = \
        ROWS / benchmark.stats.stats.mean
