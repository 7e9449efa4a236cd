"""Trace and metrics exporters (JSONL spans, Prometheus text).

Two wire formats, both line-oriented and dependency-free:

- **JSONL traces** — one JSON object per finished span, in finish
  order, with stable key order; ``jq``/pandas-friendly and diffable
  across deterministic reruns.
- **Prometheus text exposition** — ``# HELP``/``# TYPE`` headers plus
  one sample line per label child; histograms emit cumulative
  ``_bucket{le=...}`` series with ``_sum``/``_count``, exactly as a
  scrape endpoint would.

Plus :func:`span_tree` / :func:`format_span_tree`, the tree-assembly
helpers behind ``repro trace``.
"""

from __future__ import annotations

from typing import Dict, IO, Iterable, Iterator, List, Optional, Sequence, Union

from ..io import canonical_json
from .metrics import Histogram, MetricsRegistry
from .tracing import Span, TraceId

__all__ = [
    "spans_to_jsonl",
    "write_spans_jsonl",
    "prometheus_text",
    "write_prometheus",
    "span_tree",
    "format_span_tree",
]


# -- JSONL traces -----------------------------------------------------------


def spans_to_jsonl(spans: Iterable[Span]) -> Iterator[str]:
    """One compact JSON line per span (no trailing newline)."""
    for span in spans:
        yield canonical_json(span.to_dict())


def write_spans_jsonl(
    spans: Iterable[Span], destination: Union[str, IO[str]]
) -> int:
    """Write spans as JSONL to a path or open file; returns the count."""
    written = 0
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_spans_jsonl(spans, handle)
    for line in spans_to_jsonl(spans):
        destination.write(line + "\n")
        written += 1
    return written


# -- Prometheus text format -------------------------------------------------


def _prom_name(name: str) -> str:
    """Dots and dashes become underscores; Prometheus-legal output."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _prom_labels(labels: Sequence, extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _prom_number(value: float) -> str:
    value = float(value)
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """The whole registry in Prometheus text exposition format."""
    lines: List[str] = []
    for family in registry.families():
        name = _prom_name(family.name)
        if family.help:
            lines.append(f"# HELP {name} {family.help}")
        kind = "counter" if family.kind == "exposed" else family.kind
        lines.append(f"# TYPE {name} {kind}")
        for labels, instrument in family.children.items():
            if isinstance(instrument, Histogram):
                cumulative = 0
                for bound, count in zip(
                    instrument.bounds, instrument.counts
                ):
                    cumulative += count
                    le = 'le="' + _prom_number(bound) + '"'
                    lines.append(
                        f"{name}_bucket{_prom_labels(labels, le)} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{name}_bucket" + _prom_labels(labels, 'le="+Inf"')
                    + f" {instrument.count}"
                )
                lines.append(
                    f"{name}_sum{_prom_labels(labels)} "
                    f"{_prom_number(instrument.sum)}"
                )
                lines.append(
                    f"{name}_count{_prom_labels(labels)} {instrument.count}"
                )
            else:
                lines.append(
                    f"{name}{_prom_labels(labels)} "
                    f"{_prom_number(instrument.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(
    registry: MetricsRegistry, destination: Union[str, IO[str]]
) -> None:
    """Write the exposition to a path or open file."""
    text = prometheus_text(registry)
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        destination.write(text)


# -- span trees (repro trace) -----------------------------------------------


def span_tree(
    spans: Sequence[Span], trace_id: Optional[TraceId] = None
) -> List[Span]:
    """Spans of one trace, reordered parents-before-children.

    Orphans (parent not in the selection — e.g. evicted by the tracer's
    retention cap) are kept and treated as roots, so the output never
    silently loses spans.
    """
    selected = [
        s for s in spans if trace_id is None or s.trace_id == trace_id
    ]
    by_parent: Dict[Optional[str], List[Span]] = {}
    ids = {s.span_id for s in selected}
    # Tie-break same-start siblings by their position in the input
    # (finish order) so e.g. match precedes distribution-decision even
    # when both are instantaneous on the simulated clock.
    position = {id(s): index for index, s in enumerate(selected)}
    for span in selected:
        parent = span.parent_id if span.parent_id in ids else None
        by_parent.setdefault(parent, []).append(span)

    ordered: List[Span] = []

    def visit(parent_id: Optional[str]) -> None:
        for span in sorted(
            by_parent.get(parent_id, []),
            key=lambda s: (s.start, position[id(s)]),
        ):
            ordered.append(span)
            visit(span.span_id)

    visit(None)
    return ordered


def format_span_tree(spans: Sequence[Span]) -> str:
    """Human-readable indented rendering of one trace's spans."""
    ordered = span_tree(spans)
    depth: Dict[Optional[str], int] = {None: -1}
    lines = []
    for span in ordered:
        level = depth.get(span.parent_id, -1) + 1
        depth[span.span_id] = level
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span.attributes.items())
        )
        end = "…" if span.end is None else f"{span.end:.3f}"
        lines.append(
            f"{'  ' * level}{span.name} [{span.start:.3f} → {end}]"
            + (f" {attrs}" if attrs else "")
            + ("" if span.status == "ok" else f" status={span.status}")
        )
    return "\n".join(lines)
