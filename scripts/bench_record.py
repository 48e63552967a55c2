#!/usr/bin/env python
"""Record a benchmark-trajectory point and gate on regressions.

Runs the ``benchmarks/`` suite under pytest-benchmark with a JSON report,
distills the report into a compact ``BENCH_<n>.json`` file at the repo
root (the performance trajectory), and compares each benchmark against its
latest point in any ``BENCH_*.json`` (each file records only the suite it
was run on): any benchmark whose mean grew by more than the allowed
regression factor (default 20%) fails the run with a non-zero exit code.

Usage::

    PYTHONPATH=src python scripts/bench_record.py [options] [pytest-args...]

Options:
    --index N          index for BENCH_<N>.json (default: previous + 1)
    --threshold PCT    allowed mean regression percentage (default: 20)
    --dry-run          run + compare but do not write the trajectory file
    pytest-args        forwarded to pytest (e.g. a benchmark file subset;
                       default: the whole benchmarks/ directory)

See PERFORMANCE.md for how this fits the baseline workflow.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def find_previous(root: str = REPO_ROOT) -> tuple:
    """(highest index, {benchmark name: (stats, file name)}).

    Each benchmark maps to its point in the highest-numbered
    ``BENCH_<n>.json`` under ``root`` that records it; the index is
    ``None`` when there is no trajectory file yet.
    """
    files = []
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match:
            files.append((int(match.group(1)), path))
    latest = {}
    for _, path in sorted(files):
        with open(path) as handle:
            benchmarks = json.load(handle).get("benchmarks", {})
        for name, stats in benchmarks.items():
            latest[name] = (stats, os.path.basename(path))
    return (max(files)[0] if files else None), latest


def run_benchmarks(pytest_args: list) -> dict:
    """Run pytest-benchmark and return the parsed JSON report."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        report_path = handle.name
    try:
        command = [
            sys.executable, "-m", "pytest",
            *(pytest_args or [os.path.join(REPO_ROOT, "benchmarks")]),
            "-q", "-p", "no:cacheprovider",
            f"--benchmark-json={report_path}",
        ]
        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        completed = subprocess.run(command, cwd=REPO_ROOT, env=env)
        if completed.returncode != 0:
            print(f"benchmark run failed (pytest exit "
                  f"{completed.returncode})", file=sys.stderr)
            sys.exit(completed.returncode)
        with open(report_path) as report:
            return json.load(report)
    finally:
        os.unlink(report_path)


def distill(report: dict) -> dict:
    """Reduce a pytest-benchmark report to {benchmark name: stats}.

    Benchmarks that attach ``extra_info`` (e.g. the search campaign's
    candidate-evaluations/sec throughput) carry it into the trajectory
    file verbatim, so derived rates are tracked alongside wall times.
    """
    benchmarks = {}
    for bench in report.get("benchmarks", []):
        stats = bench.get("stats", {})
        entry = {
            "mean_seconds": stats.get("mean"),
            "stddev_seconds": stats.get("stddev"),
            "rounds": stats.get("rounds"),
        }
        extra = bench.get("extra_info") or {}
        if extra:
            entry["extra_info"] = extra
        benchmarks[bench["fullname"]] = entry
    return benchmarks


def compare(previous: dict, current: dict, threshold_pct: float) -> list:
    """Benchmarks that regressed beyond the threshold.

    Two regression directions are gated:

    * ``mean_seconds`` growing (wall time, higher is worse);
    * any shared ``extra_info`` ``*_per_sec`` metric shrinking
      (throughput — ``candidate_evals_per_sec``, ``trials_per_sec`` —
      lower is worse).  Non-numeric and unshared ``extra_info`` keys are
      ignored, so benchmarks may attach arbitrary annotations.
    """
    regressions = []
    factor = 1.0 + threshold_pct / 100.0
    for name, stats in current.items():
        old = previous.get(name)
        if not old:
            continue
        old_mean = old.get("mean_seconds")
        new_mean = stats.get("mean_seconds")
        if old_mean and new_mean and new_mean > old_mean * factor:
            regressions.append(
                f"{name}: {old_mean:.4f}s -> {new_mean:.4f}s "
                f"(+{(new_mean / old_mean - 1) * 100:.1f}%)")
        old_extra = old.get("extra_info") or {}
        new_extra = stats.get("extra_info") or {}
        for key in sorted(set(old_extra) & set(new_extra)):
            if not key.endswith("_per_sec"):
                continue
            old_rate, new_rate = old_extra[key], new_extra[key]
            if not all(isinstance(rate, (int, float)) and rate > 0
                       for rate in (old_rate, new_rate)):
                continue
            if new_rate * factor < old_rate:
                regressions.append(
                    f"{name} [{key}]: {old_rate:.1f}/s -> "
                    f"{new_rate:.1f}/s "
                    f"({(new_rate / old_rate - 1) * 100:.1f}%)")
    return regressions


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s [--index N] [--threshold PCT] [--dry-run] "
              "[pytest-args...]")
    parser.add_argument("--index", type=int, default=None)
    parser.add_argument("--threshold", type=float, default=20.0)
    parser.add_argument("--dry-run", action="store_true")
    args, pytest_args = parser.parse_known_args()

    previous_index, latest = find_previous()
    report = run_benchmarks(pytest_args)
    benchmarks = distill(report)
    if not benchmarks:
        print("no benchmarks were collected", file=sys.stderr)
        return 2

    previous = {name: stats for name, (stats, _) in latest.items()}
    regressions = compare(previous, benchmarks, args.threshold)
    sources = ", ".join(sorted({latest[name][1] for name in benchmarks
                                if name in latest})) or None

    index = args.index
    if index is None:
        index = 1 if previous_index is None else previous_index + 1
    record = {
        "index": index,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "pytest_args": pytest_args,
        "machine": report.get("machine_info", {}).get("cpu", {}).get(
            "brand_raw") or report.get("machine_info", {}).get("machine"),
        "benchmarks": benchmarks,
    }
    out_path = os.path.join(REPO_ROOT, f"BENCH_{index}.json")
    if args.dry_run:
        print(f"[dry-run] would write {out_path}")
    else:
        with open(out_path, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {out_path} ({len(benchmarks)} benchmarks)")

    if regressions:
        print(f"\nREGRESSION versus {sources} "
              f"(>{args.threshold:.0f}% slower):", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    if sources:
        print(f"no regressions versus {sources}")
    else:
        print("no earlier point for these benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
