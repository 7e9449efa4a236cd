"""Plain-text rendering of experiment tables and series.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep that output consistent and dependency-free (no
plotting stack is assumed in the evaluation environment).
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["format_table", "sparkline"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render an aligned monospace table."""
    if not headers:
        raise ValueError("need at least one column")
    cells: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row {row!r} has {len(row)} cells, expected {len(headers)}"
            )
        cells.append([_fmt(value) for value in row])
    widths = [
        max(len(cells[r][c]) for r in range(len(cells)))
        for c in range(len(headers))
    ]
    lines = []
    for r, row_cells in enumerate(cells):
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row_cells, widths))
        )
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """Unicode mini-chart of a numeric series."""
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    if hi <= lo:
        return _SPARK_LEVELS[0] * len(values)
    scale = (len(_SPARK_LEVELS) - 1) / (hi - lo)
    return "".join(
        _SPARK_LEVELS[int(round((v - lo) * scale))] for v in values
    )


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
