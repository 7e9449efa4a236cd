"""Recovery that falls back to an older snapshot says what it lost.

A checkpoint truncates the WAL up to its own snapshot's cut.  If that
snapshot's file is damaged later, the store falls back to the previous
one, and the records between the two checkpoints are gone from both.
``recover`` must say so in ``corruption`` — naming the snapshot, its
LSN and the WAL base — and still never raise.  A fallback that loses
nothing (the log still reaches back to the older snapshot) stays
silent, as does every undamaged recovery.  A snapshot file that is
still valid JSON but no intact snapshot — a member renamed by one
flipped bit, a bare array — is skipped like one whose digest fails.
"""

from __future__ import annotations

import json

import pytest

from repro.durability import (
    BrokerJournal,
    FileSnapshotStore,
    FileWAL,
    Snapshot,
    recover,
    restore_broker,
)
from repro.faults.verifier import build_chaos_testbed
from repro.workload import StockSubscriptionGenerator


def journaled(directory):
    broker, _ = build_chaos_testbed(seed=5, subscriptions=60, dynamic=True)
    journal = BrokerJournal(
        broker, FileWAL(directory / "wal.bin"),
        FileSnapshotStore(directory / "snapshots"),
    )
    broker.attach_journal(journal)
    return broker, journal


def subscribe(broker, count):
    arrivals = StockSubscriptionGenerator(broker.topology, seed=99)
    for _ in range(count):
        placed = arrivals.generate_one(len(broker.table))
        broker.subscribe(placed.node, placed.rectangle)


def damage(directory, snapshot_id):
    """Flip one byte in the middle of a snapshot file."""
    path = directory / "snapshots" / f"snapshot-{snapshot_id:08d}.json"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


def reopened(directory):
    return recover(
        FileWAL(directory / "wal.bin"),
        FileSnapshotStore(directory / "snapshots"),
    )


def test_fallback_below_the_wal_base_is_reported(tmp_path):
    broker, journal = journaled(tmp_path)
    journal.checkpoint()
    subscribe(broker, 5)
    cut = journal.checkpoint().checkpoint_lsn
    assert journal.wal.base_lsn == cut > 0
    damage(tmp_path, 1)

    state = reopened(tmp_path)
    assert state.snapshot_id == 0 and len(state.table) == 60
    assert state.skipped == 0
    assert state.corruption == (
        f"snapshot 0 ends at lsn 0, but the WAL starts at lsn {cut}: "
        "the records between were truncated and are lost"
    )
    # Still a usable broker: recovery reports, it does not refuse.
    restore_broker(broker, state)
    assert len(broker.table) == 60


def test_no_snapshot_left_above_a_truncated_base(tmp_path):
    broker, journal = journaled(tmp_path)
    journal.checkpoint()
    subscribe(broker, 2)
    cut = journal.checkpoint().checkpoint_lsn
    damage(tmp_path, 0)
    damage(tmp_path, 1)
    state = reopened(tmp_path)
    assert state.snapshot_id is None and state.table is None
    assert state.corruption.startswith(
        f"there is no snapshot, but the WAL starts at lsn {cut}:"
    )


def test_a_fallback_the_log_still_covers_is_silent(tmp_path):
    """An unacked intent pins the log below both checkpoints, so the
    older snapshot plus the log is the whole history."""
    broker, journal = journaled(tmp_path)
    journal.log_publish(0, 1, [2], "unicast", 0)
    journal.checkpoint()
    subscribe(broker, 5)
    journal.checkpoint()
    assert journal.wal.base_lsn == 0
    damage(tmp_path, 1)
    state = reopened(tmp_path)
    assert state.snapshot_id == 0 and len(state.table) == 65
    assert state.corruption is None
    assert set(state.inflight) == {0}


def test_an_undamaged_recovery_reports_nothing(tmp_path):
    broker, journal = journaled(tmp_path)
    journal.checkpoint()
    subscribe(broker, 5)
    journal.checkpoint()
    subscribe(broker, 3)
    state = reopened(tmp_path)
    assert state.snapshot_id == 1 and len(state.table) == 68
    assert state.corruption is None


def _rename_snapshot_id(text):
    """One flipped bit: ``"snapshot_id"`` now reads ``"snapshot_ie"``."""
    data = bytearray(text.encode("utf-8"))
    data[data.index(b'"snapshot_id"') + len('"snapshot_i')] ^= 1
    return data.decode("utf-8")


def _edited(edit):
    def rewrite(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload)
    return rewrite


@pytest.mark.parametrize(
    "rewrite",
    [
        _rename_snapshot_id,
        lambda text: "[]",
        lambda text: "null",
        lambda text: '"snapshot"',
        _edited(lambda payload: payload.pop("table")),
        _edited(lambda payload: payload.update(removed=5)),
        _edited(lambda payload: payload.update(snapshot_id=[1])),
    ],
    ids=["renamed-member", "array", "null", "string", "no-table",
         "removed-not-a-list", "id-not-a-number"],
)
def test_valid_json_that_is_no_snapshot_falls_back(tmp_path, rewrite):
    """The store skips a damaged file that still parses as JSON, as it
    does one whose digest does not match, and recovery never raises."""
    broker, journal = journaled(tmp_path)
    journal.log_publish(0, 1, [2], "unicast", 0)  # pins the log at 0
    journal.checkpoint()
    subscribe(broker, 5)
    journal.checkpoint()
    path = tmp_path / "snapshots" / "snapshot-00000001.json"
    path.write_text(rewrite(path.read_text(encoding="utf-8")))

    assert FileSnapshotStore(tmp_path / "snapshots").latest().snapshot_id == 0
    state = reopened(tmp_path)
    assert state.snapshot_id == 0 and len(state.table) == 65
    assert state.corruption is None and state.skipped == 0


@pytest.mark.parametrize("payload", [[], None, 7, "x"])
def test_from_dict_refuses_a_payload_that_is_no_object(payload):
    with pytest.raises(ValueError, match="snapshot payload is a"):
        Snapshot.from_dict(payload)
