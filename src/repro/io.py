"""Persistence: save and load testbeds as JSON.

A simulation campaign is defined by its topology and its subscription
set; this module serializes both (plus enough metadata to rebuild
routing and indexes, which are always derived, never stored) so a
testbed can be generated once and shared or replayed elsewhere.

Infinities are JSON-unfriendly, so rectangle bounds are encoded with
the string sentinels ``"-inf"`` / ``"inf"``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Union

import networkx as nx

from .core.subscription import SubscriptionTable
from .geometry.rectangle import Rectangle
from .network.topology import Topology

__all__ = [
    "fsync_dir",
    "atomic_write_text",
    "atomic_write_bytes",
    "encode_bound",
    "decode_bound",
    "decode_rectangle",
    "topology_to_dict",
    "topology_from_dict",
    "table_to_dict",
    "table_from_dict",
    "save_testbed",
    "load_testbed",
]


def fsync_dir(path: Union[str, Path]) -> None:
    """Flush a *directory* entry to disk.

    :func:`os.replace` makes a rename atomic, but the new directory
    entry itself lives in the page cache until the directory inode is
    synced — a host crash right after the rename can resurface the old
    file (or no file at all).  Fsyncing the directory closes that gap.
    Platforms that cannot fsync a directory (notably Windows) raise
    ``OSError`` on the open or the fsync; durability there is
    best-effort and the error is swallowed.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` all-or-nothing.

    The content goes to a temp file in the same directory and is
    :func:`os.replace`\\ d into place, so an interrupted write (crash,
    full disk, ctrl-C) leaves any previous file at ``path`` intact —
    never a truncated hybrid.  The temp file is removed on failure,
    and the directory is fsynced after the rename so the new entry
    itself survives a host crash.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent or "."), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
        fsync_dir(path.parent or ".")
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Binary sibling of :func:`atomic_write_text`.

    Same temp-file + :func:`os.replace` + directory-fsync contract;
    used by the durability layer (WAL rewrites, snapshot stores) where
    a torn write is precisely the corruption recovery must survive.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent or "."), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
        fsync_dir(path.parent or ".")
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_FORMAT_VERSION = 1


def encode_bound(value: float) -> Union[float, str]:
    """One rectangle bound as JSON: infinities become sentinel strings."""
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return float(value)


def decode_bound(value: Union[float, str]) -> float:
    """Inverse of :func:`encode_bound`."""
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


def decode_rectangle(
    lows: Sequence[Union[float, str]], highs: Sequence[Union[float, str]]
) -> Rectangle:
    """A rectangle from its two lists of :func:`encode_bound` values."""
    return Rectangle(
        tuple(decode_bound(x) for x in lows),
        tuple(decode_bound(x) for x in highs),
    )


def topology_to_dict(topology: Topology) -> Dict:
    """JSON-ready encoding of a transit-stub topology."""
    return {
        "nodes": [
            {"id": int(node), **data}
            for node, data in sorted(topology.graph.nodes(data=True))
        ],
        "edges": [
            {"u": int(u), "v": int(v), "cost": float(data["cost"])}
            for u, v, data in topology.graph.edges(data=True)
        ],
        "transit_nodes": [
            [int(n) for n in block] for block in topology.transit_nodes
        ],
        "stub_members": [
            [int(n) for n in stub] for stub in topology.stub_members
        ],
        "stub_block": [int(b) for b in topology.stub_block],
        "stub_owner": [int(o) for o in topology.stub_owner],
    }


def topology_from_dict(data: Dict) -> Topology:
    """Inverse of :func:`topology_to_dict` (validates the result)."""
    graph = nx.Graph()
    for node in data["nodes"]:
        attrs = {k: v for k, v in node.items() if k != "id"}
        graph.add_node(int(node["id"]), **attrs)
    for edge in data["edges"]:
        graph.add_edge(
            int(edge["u"]), int(edge["v"]), cost=float(edge["cost"])
        )
    topology = Topology(
        graph=graph,
        transit_nodes=[[int(n) for n in b] for b in data["transit_nodes"]],
        stub_members=[[int(n) for n in s] for s in data["stub_members"]],
        stub_block=[int(b) for b in data["stub_block"]],
        stub_owner=[int(o) for o in data.get("stub_owner", [])],
    )
    topology.validate()
    return topology


def table_to_dict(table: SubscriptionTable) -> Dict:
    """JSON-ready encoding of a subscription table."""
    return {
        "ndim": table.ndim,
        "subscriptions": [
            {
                "subscriber": s.subscriber,
                "lows": [encode_bound(x) for x in s.rectangle.lows],
                "highs": [encode_bound(x) for x in s.rectangle.highs],
            }
            for s in table
        ],
    }


def table_from_dict(data: Dict) -> SubscriptionTable:
    """Inverse of :func:`table_to_dict` (ids are re-assigned in order)."""
    table = SubscriptionTable(int(data["ndim"]))
    for entry in data["subscriptions"]:
        table.add(
            int(entry["subscriber"]),
            decode_rectangle(entry["lows"], entry["highs"]),
        )
    return table


def save_testbed(
    path: Union[str, Path],
    topology: Topology,
    table: SubscriptionTable,
) -> None:
    """Write a topology + subscription set to a JSON file (atomically)."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "topology": topology_to_dict(topology),
        "subscriptions": table_to_dict(table),
    }
    atomic_write_text(path, json.dumps(payload))


def load_testbed(
    path: Union[str, Path]
) -> tuple[Topology, SubscriptionTable]:
    """Read a testbed written by :func:`save_testbed`."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported testbed format version: {version!r}"
        )
    return (
        topology_from_dict(payload["topology"]),
        table_from_dict(payload["subscriptions"]),
    )
