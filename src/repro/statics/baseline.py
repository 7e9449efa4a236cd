"""Checked-in baseline: grandfathered findings that don't fail the gate.

The lint gate must be adoptable on a living tree: the baseline file
records the fingerprints of every finding that existed when the gate
was turned on, so ``repro lint`` exits 0 immediately while any *new*
violation still fails.  Entries are matched as a multiset of
``(rule, fingerprint)`` pairs — two identical offending lines need two
entries — and a fingerprint ignores line numbers (see
:mod:`repro.statics.findings`), so the baseline only decays when the
offending code itself changes.

The shipped tree's baseline is empty: every finding the first run
surfaced was fixed in the same change that introduced the linter.
Keeping the file checked in (rather than absent) makes the contract
explicit and gives ``--baseline write`` a stable target.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple, Union

from .findings import Finding

__all__ = ["Baseline", "DEFAULT_BASELINE_NAME"]

DEFAULT_BASELINE_NAME = "lint-baseline.json"

_FORMAT_VERSION = 1


class Baseline:
    """A multiset of grandfathered ``(rule, fingerprint)`` pairs."""

    def __init__(self) -> None:
        self._entries: Counter[Tuple[str, str]] = Counter()

    def __len__(self) -> int:
        return sum(self._entries.values())

    @classmethod
    def from_findings(cls, findings: List[Finding]) -> Baseline:
        baseline = cls()
        for finding in findings:
            baseline._entries[(finding.rule, finding.fingerprint)] += 1
        return baseline

    @classmethod
    def load(cls, path: Union[str, Path]) -> Baseline:
        """Read a baseline file; a missing file is an empty baseline."""
        path = Path(path)
        if not path.exists():
            return cls()
        payload = json.loads(path.read_text(encoding="utf-8"))
        version = payload.get("version")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported baseline version {version!r} "
                f"(expected {_FORMAT_VERSION})"
            )
        baseline = cls()
        for entry in payload.get("entries", []):
            key = (str(entry["rule"]), str(entry["fingerprint"]))
            baseline._entries[key] += int(entry.get("count", 1))
        return baseline

    def dump(self, path: Union[str, Path]) -> None:
        """Write the baseline as deterministic, diff-friendly JSON."""
        entries = [
            {"rule": rule, "fingerprint": fingerprint, "count": count}
            for (rule, fingerprint), count in sorted(self._entries.items())
        ]
        payload = {"version": _FORMAT_VERSION, "entries": entries}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        Path(path).write_text(text, encoding="utf-8")

    def partition(
        self, findings: List[Finding]
    ) -> Tuple[List[Finding], List[Finding]]:
        """Split findings into (new, grandfathered).

        Consumes baseline budget per match, so N baselined copies of a
        line excuse at most N occurrences — the N+1th is new.
        """
        budget = Counter(self._entries)
        fresh: List[Finding] = []
        grandfathered: List[Finding] = []
        for finding in findings:
            key = (finding.rule, finding.fingerprint)
            if budget[key] > 0:
                budget[key] -= 1
                grandfathered.append(finding)
            else:
                fresh.append(finding)
        return fresh, grandfathered

    def to_dict(self) -> Dict[str, int]:
        """Flat ``rule:fingerprint -> count`` view (used by tests)."""
        return {
            f"{rule}:{fingerprint}": count
            for (rule, fingerprint), count in sorted(self._entries.items())
        }
