"""Findings, the check-code catalog, suppressions, and output rendering.

Every check emits :class:`Finding` objects carrying a stable code from
:data:`CHECK_CODES`.  A finding can be silenced at its source line with::

    risky_call()  # repro: allow[D1] -- one-line justification

The justification is mandatory: a suppression without one is itself a
finding (code ``X1``), so the tree cannot accumulate unexplained
exemptions.  A suppression written on a comment-only line covers the next
source line instead, for statements too long to share a line with it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

CHECK_CODES: Dict[str, str] = {
    # D — determinism: the only sanctioned entropy source is an injected,
    # explicitly seeded random.Random.
    "D1": "call into the module-level random API (shared global stream)",
    "D2": "wall-clock / OS-entropy call (time.time, datetime.now, uuid4, "
          "os.urandom, secrets)",
    "D3": "unordered iteration over a set feeding an order-sensitive "
          "computation",
    "D4": "float equality in a decision predicate",
    "D5": "random.Random constructed unseeded (or from a parameter that "
          "defaults to None)",
    "D6": "numpy.random global-stream call, or a numpy Generator "
          "constructed unseeded",
    # P — parity: the engine and the invariant checker speak the same
    # event vocabulary, and every mutation operator is contract-tested.
    "P1": "trace event type not recorded by the execution engine",
    "P2": "trace event type not consumed by the invariant checker",
    "P3": "StepType member not handled by the engine's step dispatch",
    "P4": "mutation operator without a hypothesis admissibility contract "
          "test",
    # R — registry: everything concrete is registered and exercised.
    "R1": "concrete adversary/strategy class missing from the adversary "
          "registry",
    "R2": "concrete protocol class missing from the protocol registry",
    "R3": "registry name without a scenario in the registry-completeness "
          "test",
    # S — serialization/perf contracts on the hot path.
    "S1": "hot-path class in the slots manifest lost __slots__",
    "S2": "unpicklable value (lambda / local def) reaches a TrialSpec",
    "S3": "json.dump/json.dumps in the results layer without "
          "allow_nan=False (would emit non-standard NaN/Infinity "
          "tokens)",
    # F — fault tolerance: the resilient executor may catch broadly, but
    # never swallow.
    "F1": "broad except on the execution path that neither re-raises nor "
          "records the failure",
    # T — telemetry isolation: observation must never perturb results.
    "T1": "simulation-layer module imports repro.telemetry",
    "T2": "telemetry code draws entropy (seeded_rng / random.Random)",
    # X — linter meta.
    "X1": "suppression comment without a justification",
}
"""Every check code the linter can emit, with a one-line description."""

CHECK_FAMILIES: Dict[str, str] = {
    "D": "determinism",
    "P": "parity",
    "R": "registry",
    "S": "serialization",
    "F": "fault tolerance",
    "T": "telemetry",
    "X": "linter meta",
}

_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9, ]+)\]\s*"
    r"(?:(?:--|—|:)\s*(?P<why>\S.*))?$")


@dataclass(frozen=True)
class Finding:
    """One coded finding with a file:line anchor.

    Attributes:
        code: a key of :data:`CHECK_CODES`.
        path: path of the offending file, relative to the linted root.
        line: 1-based line number of the anchor.
        message: human-readable description of this occurrence.
    """

    code: str
    path: str
    line: int
    message: str

    def sort_key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.code)

    def to_jsonable(self) -> Dict[str, object]:
        return {"code": self.code, "path": self.path, "line": self.line,
                "message": self.message,
                "check": CHECK_CODES.get(self.code, "")}

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: allow[...]`` comment.

    Attributes:
        line: the source line the suppression *covers* (comment-only lines
            cover the following line).
        codes: the check codes it silences.
        justified: whether a justification followed the bracket.
        comment_line: the line the comment itself sits on.
    """

    line: int
    codes: Tuple[str, ...]
    justified: bool
    comment_line: int


def parse_suppressions(lines: Sequence[str]) -> List[Suppression]:
    """Extract every suppression comment from a file's source lines."""
    suppressions: List[Suppression] = []
    for number, raw in enumerate(lines, start=1):
        match = _SUPPRESSION_RE.search(raw)
        if not match:
            continue
        codes = tuple(code.strip().upper()
                      for code in match.group(1).split(",") if code.strip())
        covers = number + 1 if raw.lstrip().startswith("#") else number
        suppressions.append(Suppression(
            line=covers, codes=codes,
            justified=match.group("why") is not None,
            comment_line=number))
    return suppressions


def apply_suppressions(findings: Iterable[Finding],
                       suppressions_by_path: Dict[str, List[Suppression]],
                       ) -> List[Finding]:
    """Drop suppressed findings; flag unjustified suppressions as ``X1``.

    A suppression silences findings whose code (or code family letter)
    it names, on the line it covers.  Unjustified suppressions yield an
    ``X1`` finding whether or not they matched anything.
    """
    kept: List[Finding] = []
    for finding in findings:
        suppressed = False
        for suppression in suppressions_by_path.get(finding.path, ()):
            if suppression.line != finding.line:
                continue
            if finding.code in suppression.codes or \
                    finding.code[0] in suppression.codes:
                suppressed = True
                break
        if not suppressed:
            kept.append(finding)
    for path, suppressions in sorted(suppressions_by_path.items()):
        for suppression in suppressions:
            if not suppression.justified:
                kept.append(Finding(
                    code="X1", path=path, line=suppression.comment_line,
                    message="suppression "
                            f"allow[{','.join(suppression.codes)}] carries "
                            "no justification (append `-- <reason>`)"))
    return sorted(kept, key=Finding.sort_key)


def expand_code_selection(raw: Optional[str]) -> Optional[Set[str]]:
    """Expand ``--select``/``--ignore`` input into a set of full codes.

    Accepts comma-separated codes (``D1,P3``) and family letters (``D``).

    Raises:
        ValueError: on a token naming no known code or family.
    """
    if raw is None:
        return None
    selected: Set[str] = set()
    for token in raw.split(","):
        token = token.strip().upper()
        if not token:
            continue
        if token in CHECK_CODES:
            selected.add(token)
        elif token in CHECK_FAMILIES:
            selected.update(code for code in CHECK_CODES
                            if code.startswith(token))
        else:
            known = ", ".join(sorted(CHECK_CODES) + sorted(CHECK_FAMILIES))
            raise ValueError(
                f"unknown check code {token!r}; known codes: {known}")
    return selected


def filter_findings(findings: Sequence[Finding],
                    select: Optional[Set[str]] = None,
                    ignore: Optional[Set[str]] = None) -> List[Finding]:
    """Apply ``--select`` (keep only) then ``--ignore`` (drop)."""
    kept = [finding for finding in findings
            if (select is None or finding.code in select)
            and (ignore is None or finding.code not in ignore)]
    return sorted(kept, key=Finding.sort_key)


@dataclass
class LintResult:
    """The outcome of one lint run.

    Attributes:
        findings: surviving findings, sorted by (path, line, code).
        files_scanned: how many Python files were parsed.
    """

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self) -> Set[str]:
        """The distinct finding codes present."""
        return {finding.code for finding in self.findings}

    def render_text(self) -> str:
        if not self.findings:
            return (f"repro lint: {self.files_scanned} files scanned, "
                    f"no findings")
        lines = [str(finding) for finding in self.findings]
        lines.append(f"repro lint: {len(self.findings)} finding(s) in "
                     f"{self.files_scanned} scanned files")
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps({
            "files_scanned": self.files_scanned,
            "finding_count": len(self.findings),
            "findings": [finding.to_jsonable()
                         for finding in self.findings],
        }, indent=2, sort_keys=True) + "\n"


__all__ = [
    "CHECK_CODES",
    "CHECK_FAMILIES",
    "Finding",
    "Suppression",
    "LintResult",
    "parse_suppressions",
    "apply_suppressions",
    "expand_code_selection",
    "filter_findings",
]
