"""Topology export for external visualization (Figure 3's picture).

The paper's Figure 3 is a drawing of the generated network.  This
module emits Graphviz DOT so the topology can actually be drawn
(``dot -Kneato -Tsvg topology.dot``), with the transit/stub hierarchy
encoded in node shapes/colors and edge weights in the pen width.  No
drawing library is required or imported — the output is plain text.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Set, Union

from .topology import Topology

__all__ = ["topology_to_dot", "write_dot"]

_BLOCK_COLORS = (
    "#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c",
)


def topology_to_dot(
    topology: Topology,
    include_stub_nodes: bool = True,
    max_stub_nodes_per_stub: Optional[int] = None,
) -> str:
    """Render a topology as a Graphviz DOT document.

    ``include_stub_nodes=False`` draws only the backbone (transit
    nodes plus one collapsed node per stub), which is usually the
    readable view at the paper's 600-node scale;
    ``max_stub_nodes_per_stub`` truncates each stub's drawn members
    instead.
    """
    lines = [
        "graph topology {",
        "  layout=neato;",
        "  overlap=false;",
        '  node [fontsize=8, width=0.15, height=0.15, fixedsize=true];',
        "  edge [color=\"#999999\"];",
    ]
    drawn: Set[int] = set()
    for node, data in sorted(topology.graph.nodes(data=True)):
        color = _BLOCK_COLORS[data["block"] % len(_BLOCK_COLORS)]
        if data["kind"] == "transit":
            lines.append(
                f'  n{node} [shape=square, style=filled, '
                f'fillcolor="{color}", label="{node}"];'
            )
            drawn.add(node)
        elif include_stub_nodes:
            stub = data["stub"]
            if max_stub_nodes_per_stub is not None:
                position = topology.stub_members[stub].index(node)
                if position >= max_stub_nodes_per_stub:
                    continue
            lines.append(
                f'  n{node} [shape=circle, style=filled, '
                f'fillcolor="{color}40", color="{color}", label=""];'
            )
            drawn.add(node)
    if not include_stub_nodes:
        for stub, members in enumerate(topology.stub_members):
            color = _BLOCK_COLORS[
                topology.stub_block[stub] % len(_BLOCK_COLORS)
            ]
            lines.append(
                f'  s{stub} [shape=circle, style=filled, '
                f'fillcolor="{color}40", color="{color}", '
                f'label="stub {stub}\\n({len(members)})"];'
            )
        for stub in range(topology.num_stubs):
            gateway = topology.stub_gateway_transit(stub)
            lines.append(f"  n{gateway} -- s{stub};")
    for u, v, data in topology.graph.edges(data=True):
        if u in drawn and v in drawn:
            width = max(0.3, min(3.0, 12.0 / float(data["cost"])))
            lines.append(f'  n{u} -- n{v} [penwidth={width:.2f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dot(
    topology: Topology,
    path: Union[str, Path],
    **options: Any,
) -> Path:
    """Write the DOT document to a file; returns the path."""
    path = Path(path)
    path.write_text(topology_to_dot(topology, **options))
    return path
