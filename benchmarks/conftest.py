"""Benchmark-suite configuration.

Each benchmark module regenerates one experiment of EXPERIMENTS.md through
the experiment registry (:mod:`repro.experiments`).  The rows produced by
the most recent run of each benchmark are echoed to stdout (run pytest
with ``-s`` to see them) so the EXPERIMENTS.md tables can be refreshed
directly from a benchmark run.
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:  # pragma: no cover - environment-dependent
    sys.path.insert(0, _SRC)


def pytest_configure(config):
    # The benchmark suite lives outside testpaths; make sure pytest-benchmark
    # is present before collecting.
    pytest.importorskip("pytest_benchmark")


@pytest.fixture
def print_rows():
    """Print experiment rows as a table after the benchmark finishes."""
    from repro.tables import format_table

    def _print(title, rows):
        print(f"\n=== {title} ===")
        print(format_table(rows))

    return _print
