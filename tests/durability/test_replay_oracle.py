"""``recover`` against a test-local copy of the replay it has always been.

Hypothesis writes logs on a :class:`MemoryWAL` and a :class:`FileWAL`,
with and without a snapshot in the store (and with the snapshot's cut
anywhere in the log, or the log truncated past it), mixing every record
kind the broker's replay reads with bodies that still pass the CRC
check but are malformed: missing keys, wrong types, string ints,
targetless intents with and without ``seq``, deliveries before their
publish, sessions never registered.  Some records are stored as
``json.dumps`` writes them rather than canonically, and some logs end
in a torn or corrupt tail.

:func:`reference_recover` is the replay loop as it was when recovery
folded one ``WalRecord`` at a time, kept here on purpose and fed by
:func:`tests.durability.test_wal_machine.reference_walk` — so it sees
only the stored bytes.  Every :class:`RecoveredState` field, the
digest, whatever was raised and the repaired log must be the same.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path
from typing import Any, Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subscription import SubscriptionTable
from repro.durability import (
    FileSnapshotStore,
    FileWAL,
    MemorySnapshotStore,
    MemoryWAL,
    RecordKind,
    Snapshot,
    recover,
)
from repro.durability import recovery
from repro.geometry.rectangle import Rectangle
from repro.io import canonical_json, table_to_dict
from tests.durability.test_wal_machine import (
    _HEADER,
    _framed,
    reference_walk,
)


def reference_recover(dump, snapshot):
    """Today's ``recover`` off ``dump``'s bytes (the log is not repaired)."""
    records, valid_end, corruption = reference_walk(dump)
    _, _, base = _HEADER.unpack_from(dump)
    folds = recovery._BROKER_FOLDS
    state = recovery._from_snapshot(snapshot)
    state.truncated_bytes = base + len(dump) - _HEADER.size - valid_end
    state.corruption = corruption
    state.valid_end = valid_end
    if base > state.checkpoint_lsn:
        had = state.snapshot_id
        gap = (
            f"snapshot {had} ends at lsn {state.checkpoint_lsn}"
            if had is not None else "there is no snapshot"
        ) + (
            f", but the WAL starts at lsn {base}: the records "
            "between were truncated and are lost"
        )
        state.corruption = "; ".join(filter(None, (gap, corruption)))

    pending: Dict[int, Dict[str, Any]] = {}
    for lsn, kind, body in records:
        try:
            if kind is RecordKind.PUBLISH:
                intent = {
                    "publisher": int(body["publisher"]),
                    "targets": {int(t) for t in body["targets"]},
                    "lsn": lsn,
                }
                if intent["targets"]:
                    pending[int(body["seq"])] = intent
            elif kind is RecordKind.DELIVER:
                entry = pending.get(int(body["seq"]))
                if entry is not None:
                    entry["targets"].discard(int(body["target"]))
                    if not entry["targets"]:
                        del pending[int(body["seq"])]
            elif kind in folds:
                if lsn < state.checkpoint_lsn:
                    continue
                folds[kind](state, body)
        except (KeyError, TypeError, ValueError, OverflowError):
            state.skipped += 1
            continue
        state.replayed += 1

    state.inflight = {
        seq: recovery.InflightDelivery(
            sequence=seq,
            publisher=entry["publisher"],
            targets=tuple(sorted(entry["targets"])),
            lsn=entry["lsn"],
        )
        for seq, entry in sorted(pending.items())
    }
    return state


def fields(state):
    """Every field of a recovered state, type-strict where it matters."""
    return (
        [
            (seq, type(seq), e.sequence, e.publisher, e.targets, e.lsn,
             [type(t) for t in e.targets])
            for seq, e in state.inflight.items()
        ],
        state.checkpoint_lsn,
        state.snapshot_id,
        state.replayed,
        state.skipped,
        state.truncated_bytes,
        state.corruption,
        state.valid_end,
        None if state.table is None else canonical_json(
            table_to_dict(state.table)
        ),
        sorted(state.removed),
        state.partition_state,
        canonical_json(state.sessions),
        state.subscriptions_replayed,
        state.removals_replayed,
        state.digest(),
    )


def outcome(run):
    try:
        return fields(run())
    except Exception as error:  # compared: both must raise alike
        return type(error)


# -- generated logs ----------------------------------------------------------

_junk = st.sampled_from(
    [None, True, "3", "x", "", 2.0, 2.5, [], [1], {}, {"a": 1}, -1, math.inf,
     "12"]
)
_node = st.integers(0, 5)
_bounds = st.lists(
    st.one_of(st.floats(-2.0, 2.0), st.sampled_from(["-inf", "inf"])),
    min_size=2, max_size=2,
)
#: A well-formed body of each kind the broker's replay reads.
_VALID = {
    RecordKind.PUBLISH: st.fixed_dictionaries({
        "seq": st.integers(0, 3), "publisher": _node,
        "targets": st.one_of(
            st.just([]), st.lists(_node, min_size=1, max_size=3)
        ),
        "method": st.just("unicast"), "group": st.integers(0, 2),
    }),
    RecordKind.DELIVER: st.fixed_dictionaries(
        {"seq": st.integers(0, 3), "target": _node}
    ),
    RecordKind.SUBSCRIBE: st.fixed_dictionaries({
        "sid": st.integers(0, 4), "subscriber": _node,
        "lows": _bounds, "highs": _bounds,
    }),
    RecordKind.UNSUBSCRIBE: st.fixed_dictionaries(
        {"sid": st.integers(0, 4)}
    ),
    RecordKind.SESSION: st.fixed_dictionaries(
        {
            "action": st.sampled_from(
                ["register", "register", "detach", "resume", "expire"]
            ),
            "id": st.sampled_from(["a", "b"]), "subscriber": _node,
            "sids": st.lists(st.integers(0, 4), max_size=2),
            "cursor": st.integers(0, 9), "lease": st.floats(0, 9),
        },
        optional={"t": st.floats(0, 9)},
    ),
    RecordKind.CURSOR: st.fixed_dictionaries(
        {"id": st.sampled_from(["a", "b", "c"]),
         "cursor": st.integers(0, 9)}
    ),
    RecordKind.CHECKPOINT: st.fixed_dictionaries(
        {"snapshot_id": st.integers(0, 3), "lsn": st.integers(0, 99)}
    ),
}


@st.composite
def _body(draw, kind):
    """A valid body, or one with members dropped or replaced by junk
    (string ints, wrong types, empty targets and so on)."""
    body = draw(_VALID[kind])
    for key in sorted(body):
        fate = draw(st.sampled_from(["keep"] * 6 + ["drop", "junk"]))
        if fate == "drop":
            del body[key]
        elif fate == "junk":
            body[key] = draw(_junk)
    return body


#: ``(kind, body, how it is stored)``: appended (canonical, stamped),
#: or framed raw as ``json.dumps`` writes it (no stamp added).
_record = st.sampled_from(sorted(_VALID)).flatmap(
    lambda kind: st.tuples(
        st.just(kind), _body(kind), st.sampled_from(["append", "dumps"])
    )
)
_logs = st.fixed_dictionaries({
    "records": st.lists(_record, min_size=2, max_size=24),
    #: None: no snapshot; else the index of the record boundary it cuts at.
    "snapshot_at": st.one_of(st.none(), st.integers(0, 30)),
    #: None: keep every byte; else the boundary the prefix is cut at.
    "truncate_at": st.one_of(st.none(), st.integers(0, 30)),
    "tail": st.sampled_from([b"", b"\x00\x01", b"\x05\x00\x00\x00junk"]),
    "backend": st.sampled_from(["memory", "file"]),
})


def _snapshot(checkpoint_lsn):
    table = SubscriptionTable(2)
    table.add(4, Rectangle((0.0, 0.0), (1.0, 1.0)))
    table.add(5, Rectangle((-1.0, 0.5), (0.0, float("inf"))))
    return Snapshot(
        snapshot_id=3,
        checkpoint_lsn=checkpoint_lsn,
        table=table_to_dict(table),
        removed=[1],
        partition={"cells_per_dim": 4},
        sessions={
            "a": {"subscriber": 4, "sids": [0], "state": "live",
                  "durable": True, "cursor": 2, "lease": 5.0},
        },
    )


def _write(wal, records):
    for kind, body, how in records:
        if how == "append":
            wal.append(kind, body)
        else:
            stored = json.dumps(body).encode("utf-8")
            wal._append_bytes(_framed(bytes([int(kind)]) + stored))


@settings(max_examples=max(250, settings.default.max_examples))
@given(_logs)
def test_recover_equals_the_reference_replay(log):
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        if log["backend"] == "memory":
            wal, store = MemoryWAL(clock=lambda: 1.5), MemorySnapshotStore()
        else:
            wal = FileWAL(directory / "wal.bin", clock=lambda: 1.5)
            store = FileSnapshotStore(directory / "snapshots")
        _write(wal, log["records"])
        boundaries = wal.lsns() + [wal.end_lsn]
        if log["snapshot_at"] is not None:
            cut = boundaries[log["snapshot_at"] % len(boundaries)]
            store.save(_snapshot(cut))
        if log["truncate_at"] is not None:
            wal.truncate_prefix(
                boundaries[log["truncate_at"] % len(boundaries)]
            )
        wal._append_bytes(log["tail"])
        dump = wal.dump()

        expected = outcome(lambda: reference_recover(dump, store.latest()))
        assert outcome(lambda: recover(wal, store)) == expected
        if not isinstance(expected, type):
            # ...and the log was repaired at the last valid record.
            valid_end = expected[7]
            _, _, base = _HEADER.unpack_from(dump)
            assert wal.dump() == dump[: _HEADER.size + valid_end - base]


def test_a_targetless_intent_without_seq_is_replayed_not_skipped():
    wal = MemoryWAL()
    wal.append(RecordKind.PUBLISH, {"publisher": 1, "targets": []})
    wal.append(RecordKind.PUBLISH, {"publisher": 1, "targets": [2]})
    state = recover(wal, MemorySnapshotStore())
    assert (state.replayed, state.skipped) == (1, 1)
    assert fields(state) == fields(reference_recover(wal.dump(), None))


def test_a_deliver_for_an_unknown_intent_needs_no_target():
    wal = MemoryWAL()
    wal.append(RecordKind.DELIVER, {"seq": 9})
    wal.append(RecordKind.PUBLISH, {"seq": 9, "publisher": 1, "targets": [2]})
    wal.append(RecordKind.DELIVER, {"seq": 9})
    state = recover(wal, MemorySnapshotStore())
    assert (state.replayed, state.skipped) == (2, 1)
    assert fields(state) == fields(reference_recover(wal.dump(), None))
