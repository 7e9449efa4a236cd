"""The lint engine: discover files, parse, dispatch rules, suppress.

One :func:`lint_paths` call is the whole pipeline::

    result = lint_paths(["src"])          # all rules, baseline applied
    result.findings                       # what fails the gate
    result.suppressed                     # '# repro: noqa'-excused
    result.baselined                      # grandfathered

Each file is parsed once and walked once; rules register the node
types they care about and the engine dispatches accordingly, so the
cost of adding a rule is proportional to the nodes it actually
inspects.  Findings come back sorted by (path, line, col, rule) so
output — and therefore the JSON report and the baseline file — is
deterministic, which is only polite for a linter whose flagship rules
police determinism.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from .baseline import Baseline
from .findings import Finding
from .resolve import ImportMap
from .rules import LintContext, Rule, rules_by_code

__all__ = ["LintResult", "lint_paths", "lint_source", "discover_files"]

_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa(?:\s+(?P<codes>[A-Za-z0-9_,\s]+?))?\s*(?:-|$)"
)
_ORDERED_PATTERN = re.compile(r"#\s*repro:\s*ordered\b")

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", "build"})


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    files: int = 0

    @property
    def exit_code(self) -> int:
        """1 when the gate should fail: new findings or unparsable files."""
        return 1 if (self.findings or self.errors) else 0


def discover_files(paths: Sequence[str]) -> List[Path]:
    """Expand path arguments into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                candidate
                for candidate in path.rglob("*.py")
                if not (_SKIP_DIRS & set(candidate.parts))
            )
        elif path.suffix == ".py":
            out.append(path)
        elif not path.exists():
            raise ValueError(f"lint target does not exist: {raw}")
    return sorted(set(out))


def _line_markers(
    lines: Sequence[str],
) -> Tuple[Dict[int, Optional[FrozenSet[str]]], FrozenSet[int]]:
    """Extract noqa suppressions and '# repro: ordered' markers.

    Returns ``(noqa, ordered)`` where ``noqa`` maps a line number to
    the set of suppressed rule codes (``None`` meaning *all* rules)
    and ``ordered`` is the set of lines carrying the DET03 marker.
    """
    noqa: Dict[int, Optional[FrozenSet[str]]] = {}
    ordered: Set[int] = set()
    for number, text in enumerate(lines, start=1):
        if "#" not in text:
            continue
        match = _NOQA_PATTERN.search(text)
        if match:
            codes = match.group("codes")
            if codes:
                noqa[number] = frozenset(
                    code.strip().upper()
                    for code in codes.replace(",", " ").split()
                    if code.strip()
                )
            else:
                noqa[number] = None
        if _ORDERED_PATTERN.search(text):
            ordered.add(number)
    return noqa, frozenset(ordered)


def _is_suppressed(
    finding: Finding, noqa: Dict[int, Optional[FrozenSet[str]]]
) -> bool:
    if finding.line not in noqa:
        return False
    codes = noqa[finding.line]
    return codes is None or finding.rule in codes


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Lint one already-read module. Returns (active, suppressed).

    ``path`` only scopes path-sensitive rules (IO01's durable dirs,
    DET01's clock modules) and labels the findings — nothing is read
    from disk, which keeps rule tests hermetic.
    """
    active_rules = list(rules) if rules is not None else rules_by_code()
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    noqa, ordered = _line_markers(lines)
    ctx = LintContext(
        path=path.replace("\\", "/"),
        tree=tree,
        imports=ImportMap.from_tree(tree),
        lines=lines,
        ordered_lines=ordered,
    )
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in active_rules:
        if not rule.applies_to(ctx):
            continue
        for interest in rule.interests:
            dispatch.setdefault(interest, []).append(rule)
    if not dispatch:
        return [], []

    raw: List[Finding] = []
    for node in ast.walk(tree):
        for rule in dispatch.get(type(node), ()):
            raw.extend(rule.visit(node, ctx))
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    active = [f for f in raw if not _is_suppressed(f, noqa)]
    suppressed = [f for f in raw if _is_suppressed(f, noqa)]
    return active, suppressed


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
) -> LintResult:
    """Lint files/directories; the core of ``repro lint``."""
    selected = rules_by_code(rules)
    result = LintResult()
    collected: List[Finding] = []
    for file_path in discover_files(paths):
        result.files += 1
        try:
            source = file_path.read_text(encoding="utf-8")
            active, suppressed = lint_source(
                source, file_path.as_posix(), selected
            )
        except (SyntaxError, UnicodeDecodeError) as error:
            result.errors.append(f"{file_path.as_posix()}: {error}")
            continue
        collected.extend(active)
        result.suppressed.extend(suppressed)
    if baseline is not None:
        fresh, grandfathered = baseline.partition(collected)
        result.findings = fresh
        result.baselined = grandfathered
    else:
        result.findings = collected
    return result
