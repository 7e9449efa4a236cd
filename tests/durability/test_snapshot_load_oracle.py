"""Loading a stored snapshot against the rule it replaced.

``FileSnapshotStore.latest`` used to parse every file and hand it to
``Snapshot.from_dict``, which re-encodes the table it just parsed to
recompute the digest.  A canonical file now verifies by hashing its own
bytes less the ``digest`` and ``format_version`` members; any other file
is still judged by ``from_dict``.  That rule is kept here as the
reference.  Over generated snapshots (infinite sides, tombstones, a
partition or none, sessions or none), each stored canonical,
re-indented, key-reordered, or with one bit flipped in the table, the
digest or the version — alone, or above an older intact snapshot —
``latest()`` must return what the reference returns: an equal snapshot
with the same digest, or ``None``.  A ``recover`` over a kept log and
its canonical checkpoint encodes the table 0 times.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import repro.io
from repro.core import SubscriptionTable
from repro.durability import (
    BrokerJournal,
    FileSnapshotStore,
    FileWAL,
    Snapshot,
    recover,
)
from repro.faults.verifier import build_chaos_testbed
from repro.geometry import Rectangle
from repro.io import table_to_dict
from repro.workload import StockSubscriptionGenerator

INF = float("inf")


def reference_latest(directory):
    """``FileSnapshotStore.latest`` as it was."""
    store = FileSnapshotStore(directory)
    for snapshot_id in reversed(store.ids()):
        try:
            text = store._path(snapshot_id).read_text(encoding="utf-8")
            return Snapshot.from_dict(json.loads(text))
        except (ValueError, OSError):
            continue
    return None


side = st.one_of(
    st.floats(-100, 100, allow_nan=False), st.sampled_from([-INF, INF])
)
scalar = st.one_of(
    st.integers(-5, 10**6), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6), st.booleans(), st.none(),
)
documents = st.recursive(
    scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=12,
)


@st.composite
def snapshots(draw, snapshot_id):
    ndim = draw(st.integers(1, 3))
    table = SubscriptionTable(ndim)
    for _ in range(draw(st.integers(1, 12))):
        bounds = [sorted(draw(st.lists(side, min_size=2, max_size=2)))
                  for _ in range(ndim)]
        table.add(
            draw(st.integers(0, 50)),
            Rectangle(tuple(b[0] for b in bounds), tuple(b[1] for b in bounds)),
        )
    removed = draw(st.lists(st.integers(0, len(table) - 1), unique=True))
    partition = draw(st.one_of(
        st.none(), st.dictionaries(st.text(max_size=8), documents, max_size=4)
    ))
    sessions = draw(st.one_of(  # an empty table is written as none
        st.none(),
        st.dictionaries(st.text(max_size=4), documents, min_size=1, max_size=3),
    ))
    return Snapshot(
        snapshot_id=snapshot_id,
        checkpoint_lsn=draw(st.integers(0, 10**9)),
        table=table_to_dict(table),
        removed=sorted(removed),
        partition=partition,
        taken_at=draw(st.floats(0, 1e6, allow_nan=False)),
        sessions=sessions,
    )


def member_span(text, name):
    """Where the value of top-level member ``name`` lies in ``text``."""
    start = text.index(f'"{name}":') + len(f'"{name}":')
    value = json.loads(text)[name]
    length = len(repro.io.canonical_json(value))
    return start, start + length


def flipped(data, span, draw):
    at = draw(st.integers(*span))
    bit = draw(st.integers(0, 7))
    changed = bytearray(data)
    changed[at] ^= 1 << bit
    return bytes(changed)


@given(
    st.data(),
    st.sampled_from(
        ["canonical", "indented", "reordered", "table", "digest", "version"]
    ),
    st.booleans(),
)
def test_latest_answers_as_the_reencoding_rule(data, variant, older):
    newest = data.draw(snapshots(snapshot_id=1))
    with tempfile.TemporaryDirectory() as directory:
        store = FileSnapshotStore(directory)
        if older:
            store.save(data.draw(snapshots(snapshot_id=0)))
        store.save(newest)
        path = Path(directory) / "snapshot-00000001.json"
        text = path.read_text(encoding="utf-8")
        assert text == newest.canonical()
        payload = json.loads(text)
        if variant == "indented":
            text = json.dumps(payload, indent=data.draw(st.integers(0, 3)))
        elif variant == "reordered":
            text = json.dumps(
                dict(reversed(list(payload.items()))), separators=(",", ":")
            )
        if variant in ("table", "digest", "version"):
            name = {"version": "format_version"}.get(variant, variant)
            start, end = member_span(text, name)
            path.write_bytes(flipped(text.encode(), (start, end - 1), data.draw))
        else:
            path.write_text(text, encoding="utf-8")

        got = FileSnapshotStore(directory).latest()
        want = reference_latest(directory)
    if want is None:
        assert got is None
    else:
        assert got == want
        assert got.digest() == want.digest()
    if variant in ("canonical", "indented", "reordered"):
        assert got == newest


def test_a_recover_of_a_canonical_checkpoint_encodes_no_table(
    tmp_path, monkeypatch
):
    broker, _ = build_chaos_testbed(seed=5, subscriptions=60, dynamic=True)
    journal = BrokerJournal(
        broker, FileWAL(tmp_path / "wal.bin"),
        FileSnapshotStore(tmp_path / "snapshots"),
    )
    broker.attach_journal(journal)
    arrivals = StockSubscriptionGenerator(broker.topology, seed=99)
    journal.log_publish(0, 1, [2], "unicast", 0)  # keeps the log
    snapshot = journal.checkpoint()
    for _ in range(4):  # records past the checkpoint, replayed
        placed = arrivals.generate_one(len(broker.table))
        broker.subscribe(placed.node, placed.rectangle)

    encoded = []
    real = repro.io._ENCODE

    def recording(value, level):
        encoded.append(value)
        return real(value, level)

    monkeypatch.setattr(repro.io, "_ENCODE", recording)
    state = recover(
        FileWAL(tmp_path / "wal.bin"), FileSnapshotStore(tmp_path / "snapshots")
    )
    assert state.snapshot_id == snapshot.snapshot_id
    assert state.subscriptions_replayed == 4
    assert len(state.table) == len(broker.table)
    assert sum(value == snapshot.table for value in encoded) == 0
