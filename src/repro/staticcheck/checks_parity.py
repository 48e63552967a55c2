"""P — engine/verification parity checks.

The verification layer (and every claim built on it) assumes the
execution engine emits the whole trace event vocabulary and that the
independent invariant checker understands all of it.  These checks pin
that vocabulary statically:

* **P1** — every ``ExecutionTrace.record_*`` event recorder defined in
  ``simulation/trace.py`` is invoked by the engine
  (``simulation/engine.py``).
* **P2** — every event *kind* those recorders emit appears in
  ``verification/invariants.py``: the checker cannot re-derive
  guarantees from events it never looks at.
* **P3** — every ``StepType`` member of ``simulation/events.py`` is
  handled (referenced) by the engine's step dispatch.
* **P4** — every public mutation operator of ``search/mutations.py``
  (module-level function returning ``Schedule``) is exercised by the
  hypothesis admissibility contract suite
  ``tests/test_search_mutations.py``.

Each check skips silently when the files it compares are absent — that
is what lets the fixture corpus trigger one code at a time.
"""

from __future__ import annotations

import ast
from typing import Dict, List

from repro.staticcheck.index import MUTATION_CONTRACT_TEST, SymbolIndex
from repro.staticcheck.report import Finding
from repro.staticcheck.walker import ProjectFiles

TRACE_FILE = "simulation/trace.py"
ENGINE_FILES = ("simulation/engine.py",)
INVARIANTS_FILE = "verification/invariants.py"
EVENTS_FILE = "simulation/events.py"
STEP_ENGINE_FILE = "simulation/engine.py"
MUTATIONS_FILE = "search/mutations.py"


def _recorder_lines(project: ProjectFiles) -> Dict[str, int]:
    """``record_*`` method name -> definition line in the trace file."""
    source = project.get(TRACE_FILE)
    if source is None:
        return {}
    lines: Dict[str, int] = {}
    for node in source.tree.body:
        if not isinstance(node, ast.ClassDef) or \
                node.name != "ExecutionTrace":
            continue
        for method in node.body:
            if isinstance(method, ast.FunctionDef) and \
                    method.name.startswith("record_"):
                lines[method.name] = method.lineno
    return lines


def check_parity(project: ProjectFiles,
                 index: SymbolIndex) -> List[Finding]:
    """Run the P checks."""
    findings: List[Finding] = []
    kinds = index.trace_event_kinds()
    recorder_lines = _recorder_lines(project)

    # P1: the engine must invoke every event recorder.
    if kinds:
        for engine_file in ENGINE_FILES:
            if project.get(engine_file) is None:
                continue
            called = index.called_method_names(engine_file)
            for recorder in sorted(kinds):
                if recorder not in called:
                    findings.append(Finding(
                        code="P1", path=TRACE_FILE,
                        line=recorder_lines.get(recorder, 1),
                        message=f"event recorder {recorder}() (kind "
                                f"{kinds[recorder]!r}) is never called "
                                f"by {engine_file}; the engine must "
                                "emit the whole event vocabulary"))

    # P2: the invariant checker must consume every event kind.
    if kinds and project.get(INVARIANTS_FILE) is not None:
        consumed = index.string_literals(INVARIANTS_FILE)
        for recorder in sorted(kinds):
            kind = kinds[recorder]
            if kind not in consumed:
                findings.append(Finding(
                    code="P2", path=INVARIANTS_FILE, line=1,
                    message=f"trace event kind {kind!r} (emitted by "
                            f"{recorder}()) is never examined by the "
                            "invariant checker"))

    # P3: the engine's step dispatch must handle every StepType member.
    members = index.step_type_members()
    if members and project.get(STEP_ENGINE_FILE) is not None:
        handled = {attr for base, attr
                   in index.attribute_pairs(STEP_ENGINE_FILE)
                   if base == "StepType"}
        for member in sorted(members):
            if member not in handled:
                findings.append(Finding(
                    code="P3", path=EVENTS_FILE, line=members[member],
                    message=f"StepType.{member} is never handled by the "
                            "engine's step dispatch"))

    # P4: every public mutation operator has a contract test.
    operators = index.mutation_operators()
    if operators and project.get(MUTATION_CONTRACT_TEST) is not None:
        referenced = index.referenced_names(MUTATION_CONTRACT_TEST)
        for name in sorted(operators):
            if name not in referenced:
                findings.append(Finding(
                    code="P4", path=MUTATIONS_FILE, line=operators[name],
                    message=f"mutation operator {name}() has no "
                            "hypothesis admissibility contract test in "
                            f"{MUTATION_CONTRACT_TEST}"))

    return findings


__all__ = ["check_parity"]
