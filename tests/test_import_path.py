"""The CLI and its common commands run with scipy unimportable.

scipy is imported only when a caller reads a ``TrialSummary`` confidence
interval; every command below must work without it.  Each command runs in
a subprocess whose ``sitecustomize`` installs a meta-path finder that
raises ``ModuleNotFoundError`` for ``scipy`` and its submodules.
"""

import os
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BLOCK_SCIPY = textwrap.dedent("""\
    import sys


    class _BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ModuleNotFoundError(f"No module named {name!r}",
                                          name=name)
            return None


    sys.meta_path.insert(0, _BlockScipy())
    """)


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
    site = root / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(BLOCK_SCIPY)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(site), os.path.join(REPO_ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def run(*args):
        completed = subprocess.run(
            [sys.executable, *args], cwd=root, env=env,
            capture_output=True, text=True, timeout=600)
        assert completed.returncode == 0, (
            f"{args} exited {completed.returncode}:\n{completed.stderr}")
        return completed

    return run


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
