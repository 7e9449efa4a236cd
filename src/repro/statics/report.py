"""Render a :class:`~repro.statics.engine.LintResult` for humans or CI.

Text mode is for terminals: one ``path:line:col CODE message`` line
per finding, hint indented underneath, summary footer.  JSON mode is
for the CI gate and tooling: a single object with the findings, the
per-rule counts, and the exit code, so a job can both fail on and
archive the result without scraping text.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List

from .engine import LintResult
from .rules import ALL_RULES

__all__ = ["render_text", "render_json", "render_rule_table"]


def render_text(result: LintResult) -> str:
    """Human-readable report, deterministic line order."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.location()}: {finding.rule} {finding.message}"
        )
        if finding.hint:
            lines.append(f"    fix: {finding.hint}")
    for error in result.errors:
        lines.append(f"PARSE ERROR: {error}")
    per_rule = Counter(f.rule for f in result.findings)
    breakdown = ", ".join(
        f"{rule}={count}" for rule, count in sorted(per_rule.items())
    )
    summary = (
        f"{result.files} files: {len(result.findings)} finding(s)"
        + (f" [{breakdown}]" if breakdown else "")
        + f", {len(result.baselined)} baselined,"
        f" {len(result.suppressed)} suppressed"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (stable key order)."""
    per_rule = Counter(f.rule for f in result.findings)
    payload = {
        "files": result.files,
        "exit_code": result.exit_code,
        "findings": [f.to_dict() for f in result.findings],
        "counts": {
            "findings": len(result.findings),
            "baselined": len(result.baselined),
            "suppressed": len(result.suppressed),
            "errors": len(result.errors),
            "per_rule": dict(sorted(per_rule.items())),
        },
        "errors": list(result.errors),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_table() -> str:
    """The ``--list-rules`` catalogue: code, invariant, rationale, fix."""
    blocks: List[str] = []
    for cls in ALL_RULES:
        code, invariant, rationale, hint = cls.describe()
        blocks.append(
            f"{code}: {invariant}\n"
            f"    why: {rationale}\n"
            f"    fix: {hint}"
        )
    return "\n".join(blocks)
