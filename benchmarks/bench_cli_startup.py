"""Benchmark the CLI's startup: a fresh interpreter importing ``repro.cli``.

Every ``repro`` command pays this before it does any work, so it is the
floor under each command's setup time.  The benchmark times a subprocess
``python -c "import repro.cli"`` and asserts that the import loaded
neither ``scipy`` (which the package imports only for ``TrialSummary``
confidence intervals) nor ``numpy`` (which only ``run`` and ``list``
load, through the experiment registry, once the command is known).  A
bare interpreter start is timed alongside and recorded as
``extra_info``, so the trajectory (`scripts/bench_record.py`,
``BENCH_<n>.json``) shows how much of the startup is the package itself.
``src/`` is compiled to bytecode first, as ``perfbench`` does: with
``PYTHONDONTWRITEBYTECODE`` set and no ``__pycache__``, every timed
import would otherwise include compiling every module.
"""

import os
import subprocess
import sys
import time

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
IMPORT_CLI = ("import repro.cli, sys; "
              "assert 'scipy' not in sys.modules, 'scipy was imported'; "
              "assert 'numpy' not in sys.modules, 'numpy was imported'")


def _python(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _compile_sources() -> None:
    """Write missing bytecode, so no timed import compiles a module."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   check=True, stdout=subprocess.DEVNULL)


@pytest.mark.benchmark(group="cli-startup")
def test_bench_cli_startup(benchmark):
    """Interpreter start plus ``import repro.cli``, without scipy or
    numpy."""
    _compile_sources()
    bare = []
    for _ in range(5):
        started = time.perf_counter()
        _python("pass")
        bare.append(time.perf_counter() - started)

    benchmark.pedantic(_python, args=(IMPORT_CLI,), iterations=1, rounds=10,
                       warmup_rounds=1)

    bare_seconds = sorted(bare)[len(bare) // 2]
    benchmark.extra_info["bare_interpreter_seconds"] = bare_seconds
    benchmark.extra_info["import_seconds"] = \
        benchmark.stats.stats.median - bare_seconds
