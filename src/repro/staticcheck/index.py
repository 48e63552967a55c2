"""A lightweight cross-file symbol index over the parsed project.

The checks reason about relationships *between* files — "is this class
registered over there", "does the engine's step dispatch handle every
``StepType`` member" — so the index pre-digests each parse tree into cheap lookups:
class definitions with base names and ``__slots__`` facts, module-level
dict literals (the registries), string literals and attribute references
per file, and the scenario tables of the registry-completeness test.

Everything is derived statically from the AST.  Nothing here imports the
checked modules, which is what lets the registry checks run on code too
broken to import, and lets the completeness test delegate its
scenario-name discovery here (so the runtime test and the static linter
can never disagree about what the tables say).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.staticcheck.walker import ProjectFiles

COMPLETENESS_TEST = "tests/test_registry_completeness.py"
"""Relpath of the scenario-coverage contract the R3 check reads."""

MUTATION_CONTRACT_TEST = "tests/test_search_mutations.py"
"""Relpath of the hypothesis contract suite the P4 check reads."""


def _base_name(node: ast.expr) -> Optional[str]:
    """The identifier of a base-class expression (``Foo`` or ``mod.Foo``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _trace_event_kind(call: ast.Call) -> Optional[str]:
    """The kind literal a ``TraceEvent`` construction passes, if any.

    Handles ``TraceEvent("kind", ...)``, ``TraceEvent(kind="kind", ...)``
    and the tuple-record form ``new_event(TraceEvent, ("kind", ...))``:
    any call whose first argument names ``TraceEvent`` and whose second is
    a tuple literal led by the kind string.
    """
    args = call.args
    kind: Optional[ast.expr] = None
    if _base_name(call.func) == "TraceEvent":
        if args:
            kind = args[0]
        for keyword in call.keywords:
            if keyword.arg == "kind":
                kind = keyword.value
    elif len(args) >= 2 and _base_name(args[0]) == "TraceEvent" and \
            isinstance(args[1], ast.Tuple) and args[1].elts:
        kind = args[1].elts[0]
    if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
        return kind.value
    return None


def _is_dataclass_slots(decorator: ast.expr) -> bool:
    """Whether a decorator is ``@dataclass(..., slots=True)``."""
    if not isinstance(decorator, ast.Call):
        return False
    name = _base_name(decorator.func)
    if name != "dataclass":
        return False
    return any(keyword.arg == "slots"
               and isinstance(keyword.value, ast.Constant)
               and keyword.value.value is True
               for keyword in decorator.keywords)


@dataclass
class ClassInfo:
    """One module-level class definition.

    Attributes:
        name: the class name.
        relpath: defining file, relative to the package root.
        lineno: definition line.
        bases: identifier names of the direct bases.
        has_slots: whether the class pins its layout — a ``__slots__``
            assignment in the body or ``@dataclass(slots=True)``.
        raises_not_implemented: whether any method raises
            ``NotImplementedError`` (the project's abstract-hook idiom).
        has_abstract_methods: whether any method carries an
            ``@abstractmethod`` decorator.
        node: the underlying AST node.
    """

    name: str
    relpath: str
    lineno: int
    bases: Tuple[str, ...]
    has_slots: bool
    raises_not_implemented: bool
    has_abstract_methods: bool
    node: ast.ClassDef

    @property
    def is_concrete(self) -> bool:
        """Whether the class looks instantiable-and-final enough to need
        registration: no abstract-hook raise, no ``@abstractmethod``."""
        return not (self.raises_not_implemented or
                    self.has_abstract_methods)


@dataclass(frozen=True)
class ScenarioTables:
    """The statically parsed scenario tables of the completeness test.

    Attributes:
        adversaries: keys of ``ADVERSARY_SCENARIOS``.
        strategies: keys of ``STRATEGY_SCENARIOS``.
        protocols: protocol names exercised by adversary scenarios (the
            first element of each scenario tuple).
    """

    adversaries: frozenset
    strategies: frozenset
    protocols: frozenset


@dataclass
class SymbolIndex:
    """Cross-file lookups derived from one :class:`ProjectFiles`."""

    project: ProjectFiles
    classes: List[ClassInfo] = field(default_factory=list)
    _by_name: Dict[str, List[ClassInfo]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for relpath in sorted(self.project.files):
            source = self.project.files[relpath]
            for node in source.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                info = ClassInfo(
                    name=node.name, relpath=relpath, lineno=node.lineno,
                    bases=tuple(name for name in map(_base_name, node.bases)
                                if name is not None),
                    has_slots=self._class_has_slots(node),
                    raises_not_implemented=self._raises_not_implemented(node),
                    has_abstract_methods=self._has_abstract_methods(node),
                    node=node)
                self.classes.append(info)
                self._by_name.setdefault(node.name, []).append(info)

    # ------------------------------------------------------------------
    # Class facts.
    # ------------------------------------------------------------------
    @staticmethod
    def _class_has_slots(node: ast.ClassDef) -> bool:
        if any(_is_dataclass_slots(decorator)
               for decorator in node.decorator_list):
            return True
        for statement in node.body:
            if isinstance(statement, ast.Assign):
                if any(isinstance(target, ast.Name)
                       and target.id == "__slots__"
                       for target in statement.targets):
                    return True
            elif isinstance(statement, ast.AnnAssign):
                if isinstance(statement.target, ast.Name) and \
                        statement.target.id == "__slots__":
                    return True
        return False

    @staticmethod
    def _has_abstract_methods(node: ast.ClassDef) -> bool:
        for statement in node.body:
            if not isinstance(statement, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                continue
            for decorator in statement.decorator_list:
                if _base_name(decorator) == "abstractmethod":
                    return True
        return False

    @staticmethod
    def _raises_not_implemented(node: ast.ClassDef) -> bool:
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Raise) or inner.exc is None:
                continue
            exc = inner.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and \
                    exc.id == "NotImplementedError":
                return True
        return False

    def class_named(self, name: str) -> List[ClassInfo]:
        """Every module-level class with this name, across files."""
        return list(self._by_name.get(name, ()))

    def subclasses_of(self, *roots: str) -> List[ClassInfo]:
        """Transitive subclasses of the named root classes (by base name).

        Resolution is purely name-based — good enough for a project that
        does not reuse class names across unrelated hierarchies, and what
        keeps the index import-free.  The roots themselves are excluded.
        """
        known: Set[str] = set(roots)
        members: List[ClassInfo] = []
        changed = True
        while changed:
            changed = False
            for info in self.classes:
                if info.name in known:
                    continue
                if any(base in known for base in info.bases):
                    known.add(info.name)
                    members.append(info)
                    changed = True
        return sorted(members, key=lambda info: (info.relpath, info.lineno))

    # ------------------------------------------------------------------
    # Per-file digests.
    # ------------------------------------------------------------------
    def string_literals(self, relpath: str) -> Set[str]:
        """Every string constant appearing anywhere in one file."""
        source = self.project.get(relpath)
        if source is None:
            return set()
        return {node.value for node in ast.walk(source.tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)}

    def attribute_pairs(self, relpath: str) -> Set[Tuple[str, str]]:
        """``(base, attr)`` pairs of every ``base.attr`` reference."""
        source = self.project.get(relpath)
        if source is None:
            return set()
        pairs: Set[Tuple[str, str]] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name):
                pairs.add((node.value.id, node.attr))
        return pairs

    def called_method_names(self, relpath: str) -> Set[str]:
        """Attribute names invoked as methods (``obj.name(...)``)."""
        source = self.project.get(relpath)
        if source is None:
            return set()
        return {node.func.attr for node in ast.walk(source.tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)}

    def referenced_names(self, relpath: str) -> Set[str]:
        """Every bare identifier referenced (or imported) in one file."""
        source = self.project.get(relpath)
        if source is None:
            return set()
        names: Set[str] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        return names

    # ------------------------------------------------------------------
    # Registry dict literals.
    # ------------------------------------------------------------------
    def _module_assign(self, relpath: str,
                       name: str) -> Optional[ast.expr]:
        source = self.project.get(relpath)
        if source is None:
            return None
        for node in source.tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if any(isinstance(target, ast.Name) and target.id == name
                   for target in targets):
                return node.value
        return None

    def dict_string_keys(self, relpath: str,
                         name: str) -> Optional[Set[str]]:
        """String keys of a module-level dict literal, else ``None``."""
        value = self._module_assign(relpath, name)
        if not isinstance(value, ast.Dict):
            return None
        return {key.value for key in value.keys
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)}

    def dict_value_names(self, relpath: str, name: str) -> Set[str]:
        """Identifier names referenced in a dict literal's values."""
        value = self._module_assign(relpath, name)
        if not isinstance(value, ast.Dict):
            return set()
        names: Set[str] = set()
        for entry in value.values:
            for node in ast.walk(entry):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
        return names

    def assign_line(self, relpath: str, name: str) -> int:
        """Line of a module-level assignment (1 when not found)."""
        value = self._module_assign(relpath, name)
        return value.lineno if value is not None else 1

    # ------------------------------------------------------------------
    # Project vocabularies the parity checks compare.
    # ------------------------------------------------------------------
    def trace_event_kinds(self) -> Dict[str, str]:
        """``record_*`` method -> event-kind literal, from the trace class.

        Derived from ``simulation/trace.py``: every ``record_<x>`` method
        of ``ExecutionTrace`` that constructs a ``TraceEvent`` (by keyword
        or as a tuple record, see :func:`_trace_event_kind`) defines one
        entry of the engine's event vocabulary.
        """
        source = self.project.get("simulation/trace.py")
        if source is None:
            return {}
        kinds: Dict[str, str] = {}
        for node in source.tree.body:
            if not isinstance(node, ast.ClassDef) or \
                    node.name != "ExecutionTrace":
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) or \
                        not method.name.startswith("record_"):
                    continue
                for call in ast.walk(method):
                    if not isinstance(call, ast.Call):
                        continue
                    kind = _trace_event_kind(call)
                    if kind is not None:
                        kinds[method.name] = kind
        return kinds

    def step_type_members(self) -> Dict[str, int]:
        """``StepType`` enum member names -> definition lines."""
        source = self.project.get("simulation/events.py")
        if source is None:
            return {}
        members: Dict[str, int] = {}
        for node in source.tree.body:
            if not isinstance(node, ast.ClassDef) or \
                    node.name != "StepType":
                continue
            for statement in node.body:
                if isinstance(statement, ast.Assign) and \
                        isinstance(statement.value, ast.Constant):
                    for target in statement.targets:
                        if isinstance(target, ast.Name) and \
                                target.id.isupper():
                            members[target.id] = statement.lineno
        return members

    def mutation_operators(self) -> Dict[str, int]:
        """Public schedule-to-schedule operators -> definition lines.

        A mutation operator is a public module-level function of
        ``search/mutations.py`` whose return annotation is ``Schedule`` —
        the package's own contract for "maps admissible schedules to
        admissible schedules".
        """
        source = self.project.get("search/mutations.py")
        if source is None:
            return {}
        operators: Dict[str, int] = {}
        for node in source.tree.body:
            if not isinstance(node, ast.FunctionDef) or \
                    node.name.startswith("_"):
                continue
            returns = node.returns
            if isinstance(returns, ast.Name) and returns.id == "Schedule":
                operators[node.name] = node.lineno
            elif isinstance(returns, ast.Constant) and \
                    returns.value == "Schedule":
                operators[node.name] = node.lineno
        return operators

    def scenario_tables(self) -> Optional[ScenarioTables]:
        """The completeness test's scenario tables, parsed statically.

        Returns ``None`` when the test file is absent (e.g. in fixture
        trees that do not exercise the R3 check).
        """
        source = self.project.get(COMPLETENESS_TEST)
        if source is None:
            return None
        adversaries = self.dict_string_keys(COMPLETENESS_TEST,
                                            "ADVERSARY_SCENARIOS") or set()
        strategies = self.dict_string_keys(COMPLETENESS_TEST,
                                           "STRATEGY_SCENARIOS") or set()
        protocols: Set[str] = set()
        value = self._module_assign(COMPLETENESS_TEST,
                                    "ADVERSARY_SCENARIOS")
        if isinstance(value, ast.Dict):
            for entry in value.values:
                if isinstance(entry, ast.Tuple) and entry.elts and \
                        isinstance(entry.elts[0], ast.Constant) and \
                        isinstance(entry.elts[0].value, str):
                    protocols.add(entry.elts[0].value)
        return ScenarioTables(adversaries=frozenset(adversaries),
                              strategies=frozenset(strategies),
                              protocols=frozenset(protocols))


__all__ = ["ClassInfo", "ScenarioTables", "SymbolIndex",
           "COMPLETENESS_TEST", "MUTATION_CONTRACT_TEST"]
