#!/usr/bin/env python3
"""Regenerate every EXPERIMENTS.md table and write them to results/.

A thin wrapper over the unified CLI: each experiment runs through
``python -m repro run`` (so rows land in the results store under
``results/`` and interrupted regenerations *resume* on the next
invocation), then the stored runs are rendered into one combined text
file.  Sizes are chosen so the full script completes in a few minutes on
a laptop.

Run with::

    python scripts/regenerate_experiments.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:  # pragma: no cover - environment-dependent
    sys.path.insert(0, _SRC)

from repro import cli
from repro.tables import format_table
from repro.experiments import get_experiment
from repro.results import load_run, run_directory

# (experiment, master seed, full-size parameter overrides).  The seeds and
# the overrides reproduce this script's historical tables; quick mode uses
# each experiment's registered quick overrides unchanged.
PLANS = (
    ("E1", 1, {"max_windows": 6000}),
    ("E2", 2, {}),
    ("E3", 3, {"separation_trials": 10}),
    ("E4", 4, {"trials": 8}),
    ("E5", 5, {}),
    ("E6", 6, {"trials": 2}),
    ("E7", 7, {"trials": 3}),
    ("E8", 8, {}),
    ("E9", 9, {}),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps (about a minute)")
    parser.add_argument("--store", default="results",
                        help="results-store root (default: results/)")
    parser.add_argument("--output", default="results/experiment_tables.txt")
    args = parser.parse_args()

    sections = []
    for name, seed, overrides in PLANS:
        experiment = get_experiment(name)
        applied = {} if args.quick else overrides
        argv = ["run", name, "--seed", str(seed), "--out", args.store]
        if args.quick:
            argv.append("--quick")
        for key, value in applied.items():
            argv.extend(["--set", f"{key}={value!r}"])
        exit_code = cli.main(argv)
        if exit_code != 0:
            return exit_code
        params = experiment.resolve_params(
            dict(applied, seed=seed), quick=args.quick)
        manifest, rows = load_run(
            run_directory(args.store, experiment.name, params))
        if experiment.finalize is not None:
            rows = rows + experiment.finalize(rows, manifest["params"])
        sections.append(
            f"== {experiment.name}: {experiment.title} "
            f"({manifest['wall_time_seconds']:.1f}s) ==\n"
            f"{format_table(rows)}\n")

    os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
    with open(args.output, "w") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
