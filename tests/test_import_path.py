"""The CLI's commands run without the optional heavy modules they never use.

scipy is imported only when a caller reads a ``TrialSummary`` confidence
interval, and numpy only by the experiment registry (its statistics) and
the batched engine: ``run`` and ``list`` load them, while ``fuzz``,
``search``, ``replay``, ``query``, ``report``, ``show``, ``top`` and
``lint`` on fuzz/search campaigns never do.  Each command runs in a
subprocess whose ``sitecustomize`` installs a meta-path finder that raises
``ModuleNotFoundError`` for the blocked module and its submodules; the
numpy-blocked commands must also print exactly what an unblocked run
prints.
"""

import glob
import os
import re
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BLOCKER = textwrap.dedent("""\
    import sys


    class _Block:
        def find_spec(self, name, path=None, target=None):
            if name == {blocked!r} or name.startswith({blocked!r} + "."):
                raise ModuleNotFoundError(f"No module named {{name!r}}",
                                          name=name)
            return None


    sys.meta_path.insert(0, _Block())
    """)

# A campaign header carries its wall time, the one thing two runs of the
# same command may print differently.
WALL_TIME = re.compile(r"; \d+\.\ds; ")


def _runner(root, blocked=None):
    """``run(*args, cwd=None)``: ``python args...`` with ``blocked``
    unimportable (nothing blocked for ``None``); asserts exit 0."""
    paths = [os.path.join(REPO_ROOT, "src")]
    if blocked is not None:
        site = root / f"site-{blocked}"
        site.mkdir()
        (site / "sitecustomize.py").write_text(BLOCKER.format(blocked=blocked))
        paths.insert(0, str(site))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        paths + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("REPRO_CHAOS", None)
    env["PYTHONHASHSEED"] = "0"

    def run(*args, cwd=None):
        completed = subprocess.run(
            [sys.executable, *args], cwd=cwd or root, env=env,
            capture_output=True, text=True, timeout=600)
        assert completed.returncode == 0, (
            f"{args} exited {completed.returncode}:\n{completed.stderr}")
        return completed

    return run


# ----------------------------------------------------------------------
# scipy blocked.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("no-scipy")


@pytest.fixture(scope="module")
def out(root):
    """The results-store root the commands share."""
    return str(root / "results")


@pytest.fixture(scope="module")
def blocked(root):
    """Run ``python args...`` with scipy blocked; returns the result."""
    return _runner(root, "scipy")


def test_blocker_blocks_scipy(blocked):
    blocked("-c", "try:\n    import scipy.stats\n"
                  "except ModuleNotFoundError:\n    pass\n"
                  "else:\n    raise SystemExit('scipy was importable')")


def test_cli_import_does_not_load_scipy(blocked):
    blocked("-c", "import repro.cli, sys; "
                  "assert 'scipy' not in sys.modules")


def test_run_e2_trial_and_batched_backends(blocked, out):
    blocked("-m", "repro", "run", "E2", "--quick", "--backend", "trial",
            "--workers", "0", "--out", out)
    blocked("-m", "repro", "run", "E2", "--quick", "--backend", "batched",
            "--workers", "2", "--out", out + "-batched")


def test_fuzz_bracha(blocked, out):
    blocked("-m", "repro", "fuzz", "--protocol", "bracha", "--trials", "5",
            "--workers", "2", "--out", out)


def test_read_commands(blocked, out):
    blocked("-m", "repro", "run", "E2", "--quick", "--workers", "0",
            "--out", out)
    blocked("-m", "repro", "report", "E2", "--out", out)
    blocked("-m", "repro", "show", "E2", "--timing", "--out", out)
    completed = blocked(
        "-m", "repro", "query",
        "SELECT experiment, COUNT(*) AS n FROM rows GROUP BY experiment",
        "--out", out)
    assert "E2" in completed.stdout


# ----------------------------------------------------------------------
# numpy blocked.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def numpy_root(tmp_path_factory):
    return tmp_path_factory.mktemp("no-numpy")


@pytest.fixture(scope="module")
def no_numpy(numpy_root):
    return _runner(numpy_root, "numpy")


@pytest.fixture(scope="module")
def with_numpy(numpy_root):
    return _runner(numpy_root)


@pytest.fixture(scope="module")
def campaigns(numpy_root, no_numpy, with_numpy):
    """Each campaign command run twice, numpy blocked and not.

    Both runs use the relative store root ``results`` from their own
    directory, so their stdout (which names the run directory) must
    match byte for byte once the wall time is masked.  Returns the
    numpy-blocked store root, for the read commands.
    """
    commands = [
        ("fuzz", "--trials", "6", "--workers", "0"),
        ("fuzz", "--trials", "6", "--workers", "2", "--seed", "1"),
        ("fuzz", "--protocol", "bracha", "--trials", "4", "--workers", "0"),
        ("fuzz", "--protocol", "bracha", "--trials", "4", "--workers", "2",
         "--seed", "1"),
        ("search", "--generations", "2", "--population", "3", "--windows",
         "40", "--workers", "0"),
    ]
    blocked_dir = numpy_root / "blocked"
    plain_dir = numpy_root / "plain"
    blocked_dir.mkdir()
    plain_dir.mkdir()
    for command in commands:
        argv = ("-m", "repro", *command, "--out", "results")
        blocked = no_numpy(*argv, cwd=blocked_dir).stdout
        plain = with_numpy(*argv, cwd=plain_dir).stdout
        assert WALL_TIME.search(blocked), blocked
        assert WALL_TIME.sub("; ", blocked) == WALL_TIME.sub("; ", plain), \
            command
    return str(blocked_dir / "results")


def test_numpy_blocker_blocks_numpy(no_numpy):
    no_numpy("-c", "try:\n    import numpy\n"
                   "except ModuleNotFoundError:\n    pass\n"
                   "else:\n    raise SystemExit('numpy was importable')")


def test_cli_import_loads_the_executor_without_numpy(no_numpy):
    no_numpy("-c", "import repro.cli, sys; "
                   "assert 'numpy' not in sys.modules; "
                   "assert 'repro.runner.supervisor' in sys.modules")


@pytest.mark.parametrize("argv", [
    ("query", "SELECT experiment, COUNT(*) AS n FROM rows "
              "GROUP BY experiment ORDER BY experiment"),
    ("query", "SELECT name, COUNT(*) AS n FROM spans GROUP BY name "
              "ORDER BY name", "--format", "json"),
    ("report", "fuzz"),
    ("report", "search", "--format", "json"),
    ("show", "fuzz", "--timing"),
    ("show", "search"),
    ("top", "fuzz", "--once"),
])
def test_read_commands_without_numpy(campaigns, no_numpy, with_numpy, argv):
    argv = ("-m", "repro", *argv, "--out", campaigns)
    assert no_numpy(*argv).stdout == with_numpy(*argv).stdout


def test_replay_without_numpy(campaigns, no_numpy, with_numpy):
    [artifact] = glob.glob(os.path.join(campaigns, "search", "*",
                                        "best-schedule.json"))
    completed = no_numpy("-m", "repro", "replay", artifact)
    assert "invariant verdict: OK" in completed.stdout
    assert completed.stdout == with_numpy("-m", "repro", "replay",
                                          artifact).stdout


def test_lint_without_numpy(no_numpy, with_numpy):
    completed = no_numpy("-m", "repro", "lint")
    assert completed.stdout == with_numpy("-m", "repro", "lint").stdout


def test_run_loads_numpy_before_its_first_trial(with_numpy, tmp_path):
    """``run`` imports numpy up front, so forked workers inherit it."""
    script = textwrap.dedent("""\
        import sys

        import repro.cli
        from repro.runner.supervisor import SupervisedRunner

        seen = []
        original = SupervisedRunner.iter_results


        def iter_results(self, *args, **kwargs):
            seen.append("numpy" in sys.modules)
            return original(self, *args, **kwargs)


        SupervisedRunner.iter_results = iter_results
        code = repro.cli.main(sys.argv[1:])
        assert code == 0 and seen and seen[0], (code, seen)
        """)
    with_numpy("-c", script, "run", "E2", "--quick", "--backend",
               "batched", "--workers", "2", "--no-progress", "--out",
               str(tmp_path / "results"))
