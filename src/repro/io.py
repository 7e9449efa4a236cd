"""Persistence: save and load testbeds as JSON.

A simulation campaign is defined by its topology and its subscription
set; this module serializes both (plus enough metadata to rebuild
routing and indexes, which are always derived, never stored) so a
testbed can be generated once and shared or replayed elsewhere.

Infinities are JSON-unfriendly, so rectangle bounds are encoded with
the string sentinels ``"-inf"`` / ``"inf"``.

The same codecs carry the durability layer's checkpoints, taken far
more often than the subscription set changes: :class:`EntryCodec`
remembers each entry it has encoded and :class:`TableEncoder` keeps a
table's encoding until the table grows, so a checkpoint of a table
that gained *k* subscriptions encodes *k* entries.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional
from typing import Sequence, Tuple, Union

import networkx as nx

from .core.subscription import SubscriptionTable
from .geometry.rectangle import Rectangle
from .network.topology import Topology

__all__ = [
    "fsync_dir",
    "atomic_write_text",
    "atomic_write_bytes",
    "open_append",
    "canonical_json",
    "canonical_object",
    "encode_bound",
    "decode_bound",
    "decode_rectangle",
    "topology_to_dict",
    "topology_from_dict",
    "EntryCodec",
    "TableEncoder",
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
    with contextlib.suppress(OSError):
        fd = os.open(str(path), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """:func:`atomic_write_bytes` of ``text`` encoded as UTF-8."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` all-or-nothing.

    The content goes to a temp file in the same directory and is
    :func:`os.replace`\\ d into place, so an interrupted write (crash,
    full disk, ctrl-C) leaves any previous file at ``path`` intact —
    never a truncated hybrid; the durability layer (WAL rewrites,
    snapshot stores) relies on it, a torn write being precisely the
    corruption recovery must survive.  The temp file is removed on
    failure.  Its data is fsynced before the rename, and the directory
    after it, so after a host crash the new entry exists and holds the
    whole content, not an empty or short file.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent or "."), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_dir(path.parent or ".")
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def open_append(path: Union[str, Path]) -> int:
    """A descriptor that reads an existing file anywhere and writes
    only at its end (``O_APPEND``: the kernel places every write) — or,
    where writing is not permitted, only reads, for inspection."""
    try:
        return os.open(path, os.O_RDWR | os.O_APPEND)
    except PermissionError:
        return os.open(path, os.O_RDONLY)


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


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: ``_CANONICAL``'s C encoder, built once: ``JSONEncoder.encode`` builds
#: a new one on every call.  No ``markers`` dict (a shared one keeps
#: stale ids after a failed encode), so no circular-reference check.
_ENCODE = json.encoder.c_make_encoder(
    None, _CANONICAL.default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, True,
)


def canonical_json(value: object) -> str:
    """The one canonical JSON text of ``value``: keys sorted, no
    whitespace.  Digests and stored bytes are defined over it.  A
    cyclic value raises ``RecursionError`` (nothing checks for one)."""
    return "".join(_ENCODE(value, 0))


def canonical_object(members: Mapping[str, str]) -> str:
    """:func:`canonical_json` of an object, from its members' texts.

    Canonical JSON is compositional: an object's text is its
    ``"key":text`` pairs in key order, joined by commas, in braces, and
    an array's is its elements' texts joined by commas, in brackets.
    So ``canonical_object({k: canonical_json(v) for k, v in d.items()})
    == canonical_json(d)``, and a member whose text is already known
    need not be encoded again — every assembled text in this package is
    built by this rule and checked against the whole-payload encode in
    ``tests/durability/test_snapshot_bytes.py``.
    """
    return "{%s}" % ",".join(
        f"{canonical_json(key)}:{members[key]}" for key in sorted(members)
    )


class EntryCodec:
    """Subscription entries as JSON rows, each encoded once.

    ``row(key, subscriber, lows, highs)`` lays one entry out (a dict in
    a broker's table, a list in a shard's); the codec remembers the row
    and its canonical text under ``key``.  The premise is that an entry
    never changes while it keeps its key — true of a subscription id —
    so whoever lets a key be reused must :meth:`forget` it.
    """

    def __init__(self, row: Callable[[int, int, List, List], object]):
        self._row = row
        self._known: Dict[int, Tuple[object, str]] = {}

    def encode(
        self, entries: Iterable[Tuple[int, int, Rectangle]]
    ) -> Tuple[List[object], str]:
        """The rows of ``(key, subscriber, rectangle)`` entries in the
        order given, and the canonical text of that list."""
        known = self._known
        rows, texts = [], []
        for key, subscriber, rectangle in entries:
            hit = known.get(key)
            if hit is None:
                row = self._row(
                    int(key),
                    int(subscriber),
                    [encode_bound(x) for x in rectangle.lows],
                    [encode_bound(x) for x in rectangle.highs],
                )
                hit = known[key] = (row, canonical_json(row))
            rows.append(hit[0])
            texts.append(hit[1])
        return rows, "[%s]" % ",".join(texts)

    def forget(self, key: int) -> None:
        self._known.pop(key, None)


def _table_row(_sid: int, subscriber: int, lows: List, highs: List) -> Dict:
    return {"subscriber": subscriber, "lows": lows, "highs": highs}


class TableEncoder:
    """A subscription table's JSON encoding and canonical text, kept.

    A :class:`SubscriptionTable` is append-only — ids are positions and
    nothing is edited or deleted in place (an unsubscribe is a
    tombstone held elsewhere) — so what was encoded for one length is a
    prefix of what any later length needs.  Three events end that, and
    all three install a **different table object**:
    ``DynamicPubSubBroker.repreprocess`` (compacts the live rows into a
    new table), ``restore_broker`` (the recovered table) and plain
    assignment to ``broker.table``.  The new table may be exactly as
    long as the old one, so the encoder holds the table it encoded and
    starts over when handed one that ``is not`` it.

    What :meth:`encode` returns is shared between calls until the table
    grows: callers treat it as a value and do not mutate it.
    """

    def __init__(self) -> None:
        self._table: Optional[SubscriptionTable] = None
        self._codec = EntryCodec(_table_row)
        self._encoded: Optional[Tuple[Dict, str]] = None

    def encode(self, table: SubscriptionTable) -> Tuple[Dict, str]:
        """``(table_to_dict(table), canonical_json of it)``."""
        if table is not self._table:
            self._table = table
            self._codec = EntryCodec(_table_row)
            self._encoded = None
        done = self._encoded
        if done is None or len(done[0]["subscriptions"]) != len(table):
            rows, text = self._codec.encode(
                (sid, s.subscriber, s.rectangle)
                for sid, s in enumerate(table)
            )
            ndim = canonical_json(table.ndim)
            done = self._encoded = (
                {"ndim": table.ndim, "subscriptions": rows},
                canonical_object({"ndim": ndim, "subscriptions": text}),
            )
        return done


def table_to_dict(table: SubscriptionTable) -> Dict:
    """JSON-ready encoding of a subscription table (a
    :class:`TableEncoder` run from empty)."""
    return TableEncoder().encode(table)[0]


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
