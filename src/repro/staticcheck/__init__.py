"""``repro.staticcheck`` — a project-specific AST contract linter.

The test suite enforces this reproduction's core contracts (bit-identical
seeded execution, engine parity, registry completeness, hot-path layout)
at *runtime*, after a violation has already shipped.  This package
enforces them *statically*: it parses the whole ``src/repro`` tree with
:mod:`ast` (never importing it), builds a lightweight cross-file symbol
index, and emits coded findings with ``file:line`` anchors.

Check families (see ``STATIC_ANALYSIS.md`` for the full catalog):

* **D** — determinism: the only sanctioned entropy source is an
  injected, explicitly seeded ``random.Random``.
* **P** — parity: the engine and the invariant checker share one
  event vocabulary; every mutation operator is contract-tested.
* **R** — registry: every concrete adversary/protocol is registered and
  exercised by a scenario.
* **S** — serialization/perf: hot-path classes keep ``__slots__``;
  trial specs stay picklable; results-layer JSON writes refuse
  non-finite floats.
* **F** — fault tolerance: the resilient executor may catch broadly,
  but every broad handler re-raises or records the failure.
* **T** — telemetry isolation: simulation-layer code never imports
  :mod:`repro.telemetry`, and telemetry code never draws entropy.

Findings are silenced per line with ``# repro: allow[CODE] -- why``; a
suppression without the justification is itself a finding (``X1``).

Entry points: :func:`run_lint` (the ``repro lint`` CLI wraps it) and
:func:`project_scenarios` (the registry-completeness test delegates its
scenario-name discovery here so the static and runtime views of the
scenario tables can never disagree).
"""

from __future__ import annotations

import os
from typing import Optional, Set

import repro
from repro.staticcheck.checks_determinism import check_determinism
from repro.staticcheck.checks_faults import check_faults
from repro.staticcheck.checks_parity import check_parity
from repro.staticcheck.checks_registry import check_registry
from repro.staticcheck.checks_serialization import (SLOTS_MANIFEST,
                                                    check_serialization)
from repro.staticcheck.checks_telemetry import check_telemetry
from repro.staticcheck.index import ScenarioTables, SymbolIndex
from repro.staticcheck.report import (CHECK_CODES, CHECK_FAMILIES, Finding,
                                      LintResult, apply_suppressions,
                                      expand_code_selection, filter_findings)
from repro.staticcheck.walker import ProjectFiles, walk_project

ALL_CHECKS = (check_determinism, check_faults, check_parity,
              check_registry, check_serialization, check_telemetry)


def default_package_root() -> str:
    """The installed ``repro`` package directory."""
    return os.path.dirname(os.path.abspath(repro.__file__))


def default_tests_root() -> Optional[str]:
    """The repository ``tests/`` directory, when the layout exposes one.

    The package lives at ``<repo>/src/repro``; installed copies without
    an adjacent checkout simply lint the package alone.
    """
    repo = os.path.dirname(os.path.dirname(default_package_root()))
    tests = os.path.join(repo, "tests")
    return tests if os.path.isdir(tests) else None


def run_lint(package_root: Optional[str] = None,
             tests_root: Optional[str] = None,
             select: Optional[Set[str]] = None,
             ignore: Optional[Set[str]] = None) -> LintResult:
    """Lint a package tree and return the surviving findings.

    Args:
        package_root: directory to lint (defaults to the installed
            ``repro`` package).
        tests_root: accompanying tests directory, parsed under a
            ``tests/`` prefix (defaults to the repository ``tests/``
            next to the package; pass ``""`` via the CLI to disable).
        select: keep only these codes (``None`` keeps all).
        ignore: drop these codes.

    Returns:
        A :class:`~repro.staticcheck.report.LintResult`; ``result.ok``
        is the CLI's exit status.
    """
    if package_root is None:
        package_root = default_package_root()
        if tests_root is None:
            tests_root = default_tests_root()
    project = walk_project(package_root, tests_root)
    index = SymbolIndex(project)
    findings = []
    for check in ALL_CHECKS:
        findings.extend(check(project, index))
    suppressions = {relpath: source.suppressions
                    for relpath, source in project.files.items()
                    if source.suppressions}
    findings = apply_suppressions(findings, suppressions)
    findings = filter_findings(findings, select=select, ignore=ignore)
    return LintResult(findings=findings, files_scanned=len(project))


def default_fixture_root() -> Optional[str]:
    """The self-test corpus ``tests/staticcheck_fixtures/``, when present."""
    tests = default_tests_root()
    if tests is None:
        return None
    fixtures = os.path.join(tests, "staticcheck_fixtures")
    return fixtures if os.path.isdir(fixtures) else None


def iter_fixtures(fixtures_root: str):
    """Yield ``(name, expected_code, package_root, tests_root)`` per fixture.

    Each fixture is a directory named ``<code>_<slug>`` holding a minimal
    package tree that must yield *exactly* its code; a ``tests/`` subtree,
    when present, is linted under the usual ``tests/`` prefix (for checks
    that compare package code against the test suite).
    """
    for name in sorted(os.listdir(fixtures_root)):
        package_root = os.path.join(fixtures_root, name)
        if not os.path.isdir(package_root) or name.startswith((".", "_")):
            continue
        expected = name.split("_", 1)[0].upper()
        if expected not in CHECK_CODES:
            raise ValueError(
                f"fixture directory {name!r} does not start with a known "
                f"check code")
        tests_root = os.path.join(package_root, "tests")
        yield (name, expected, package_root,
               tests_root if os.path.isdir(tests_root) else None)


def run_fixture_selftest(fixtures_root: Optional[str] = None):
    """Lint every fixture; returns ``(name, expected, got, ok)`` rows.

    A fixture passes when the linter reports *exactly* its expected code
    (one or more findings, no other codes).
    """
    if fixtures_root is None:
        fixtures_root = default_fixture_root()
    if fixtures_root is None:
        raise RuntimeError("no tests/staticcheck_fixtures directory found")
    rows = []
    for name, expected, package_root, tests_root in \
            iter_fixtures(fixtures_root):
        result = run_lint(package_root=package_root, tests_root=tests_root)
        got = result.codes()
        rows.append((name, expected, got, got == {expected}))
    return rows


def project_scenarios() -> ScenarioTables:
    """The completeness test's scenario tables, statically parsed.

    Raises:
        RuntimeError: when the repository layout (and with it the
            completeness test) is not available.
    """
    project = walk_project(default_package_root(), default_tests_root())
    tables = SymbolIndex(project).scenario_tables()
    if tables is None:
        raise RuntimeError(
            "tests/test_registry_completeness.py not found next to the "
            "repro package; scenario tables are only available from a "
            "repository checkout")
    return tables


__all__ = [
    "ALL_CHECKS",
    "CHECK_CODES",
    "CHECK_FAMILIES",
    "Finding",
    "LintResult",
    "ProjectFiles",
    "ScenarioTables",
    "SLOTS_MANIFEST",
    "SymbolIndex",
    "default_fixture_root",
    "default_package_root",
    "default_tests_root",
    "expand_code_selection",
    "iter_fixtures",
    "run_fixture_selftest",
    "project_scenarios",
    "run_lint",
]
