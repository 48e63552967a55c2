"""S — serialization and hot-path layout checks.

* **S1** — the slots manifest.  The perf work pinned ``__slots__`` on
  the classes every simulated step allocates or touches; losing the
  declaration is an easy, silent regression during refactors (add one
  stray class attribute and every instance quietly grows a ``__dict__``).
  The manifest below names them; the check verifies each still pins its
  layout (an explicit ``__slots__`` or ``@dataclass(slots=True)``).

* **S2** — trial-spec picklability.  ``TrialSpec`` objects cross process
  boundaries in the parallel runner; a lambda (or anything defined
  inside a function) reaching a spec field only explodes once someone
  runs with ``--workers > 0``.  The check flags lambdas in ``TrialSpec``
  field defaults and in the arguments of ``TrialSpec(...)``
  construction sites anywhere in the tree.

* **S3** — strict JSON in the results layer.  Python's ``json.dumps``
  happily emits ``NaN``/``Infinity`` tokens by default, which are not
  JSON: the store's own loaders (and any strict JSON reader) reject
  them.  The store canonicalizes non-finite floats to ``null`` at the
  write boundary, and every ``json.dump(s)`` call under ``results/``
  must pass ``allow_nan=False`` so a non-finite value that slips past
  canonicalization fails loudly at write time instead of poisoning the
  file.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from repro.staticcheck.index import SymbolIndex
from repro.staticcheck.report import Finding
from repro.staticcheck.walker import ProjectFiles

SLOTS_MANIFEST: Tuple[Tuple[str, str], ...] = (
    ("simulation/processor.py", "Processor"),
    ("simulation/message.py", "Message"),
    ("simulation/configuration.py", "Configuration"),
    ("simulation/trace.py", "TraceEvent"),
    ("simulation/events.py", "Step"),
)
"""(relpath, class name) pairs that must keep ``__slots__``.

Extend this manifest when a profile shows a new class on the per-step
hot path and it gains ``__slots__``; the linter then guards the
declaration from accidental removal.
"""

TRIAL_SPEC_FILE = "runner/spec.py"
TRIAL_SPEC_CLASS = "TrialSpec"

STRICT_JSON_PREFIX = "results/"
"""Tree prefix whose ``json.dump(s)`` calls must pass allow_nan=False."""


def check_serialization(project: ProjectFiles,
                        index: SymbolIndex) -> List[Finding]:
    """Run the S checks."""
    findings: List[Finding] = []

    # S1: manifest classes keep __slots__.
    for relpath, class_name in SLOTS_MANIFEST:
        if project.get(relpath) is None:
            continue
        infos = [info for info in index.class_named(class_name)
                 if info.relpath == relpath]
        if not infos:
            findings.append(Finding(
                code="S1", path=relpath, line=1,
                message=f"slots-manifest class {class_name} not found; "
                        "update the manifest in "
                        "repro/staticcheck/checks_serialization.py"))
            continue
        for info in infos:
            if not info.has_slots:
                findings.append(Finding(
                    code="S1", path=relpath, line=info.lineno,
                    message=f"hot-path class {class_name} lost its "
                            "__slots__ declaration"))

    # S2: no lambdas in TrialSpec fields or construction sites.
    spec_source = project.get(TRIAL_SPEC_FILE)
    if spec_source is not None:
        for node in spec_source.tree.body:
            if isinstance(node, ast.ClassDef) and \
                    node.name == TRIAL_SPEC_CLASS:
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Lambda):
                        findings.append(Finding(
                            code="S2", path=TRIAL_SPEC_FILE,
                            line=inner.lineno,
                            message="lambda in a TrialSpec field default "
                                    "is unpicklable; use a module-level "
                                    "function"))
    for relpath in sorted(project.files):
        source = project.files[relpath]
        if relpath.startswith("tests/"):
            continue
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name != TRIAL_SPEC_CLASS:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for inner in ast.walk(arg):
                    if isinstance(inner, ast.Lambda):
                        findings.append(Finding(
                            code="S2", path=relpath, line=inner.lineno,
                            message="lambda passed into a TrialSpec is "
                                    "unpicklable under --workers > 0; "
                                    "use a module-level function"))

    # S3: every json.dump(s) in the results layer is strict about
    # non-finite floats.
    for relpath in sorted(project.files):
        if not relpath.startswith(STRICT_JSON_PREFIX):
            continue
        source = project.files[relpath]
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in ("dump", "dumps")
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "json"):
                continue
            strict = any(
                keyword.arg == "allow_nan"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
                for keyword in node.keywords)
            if not strict:
                findings.append(Finding(
                    code="S3", path=relpath, line=node.lineno,
                    message=f"json.{func.attr} in the results layer "
                            "without allow_nan=False; the default emits "
                            "NaN/Infinity tokens the store's loaders "
                            "reject"))

    return findings


__all__ = ["SLOTS_MANIFEST", "STRICT_JSON_PREFIX", "check_serialization"]
