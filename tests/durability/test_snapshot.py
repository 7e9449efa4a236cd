"""Snapshots: digest verification and newest-valid-wins retrieval."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.durability import FileSnapshotStore, MemorySnapshotStore, Snapshot
from repro.io import canonical_json
from tests.durability.test_snapshot_bytes import snapshots

TABLE = {
    "ndim": 2,
    "subscriptions": [
        {"subscriber": 3, "lows": [0.0, "-inf"], "highs": [1.0, "inf"]},
    ],
}

TABLE_2 = {
    "ndim": 2,
    "subscriptions": [
        {"subscriber": 5, "lows": ["-inf", 0.5], "highs": ["inf", 2.0]},
    ],
}


def snap(snapshot_id=0, checkpoint_lsn=17):
    return Snapshot(
        snapshot_id=snapshot_id,
        checkpoint_lsn=checkpoint_lsn,
        table=TABLE,
        removed=[2],
        partition={"algorithm": "forgy", "cells_per_dim": 4},
        taken_at=8.5,
    )


class TestCodec:
    def test_round_trip(self):
        original = snap()
        restored = Snapshot.from_dict(original.to_dict())
        assert restored == original

    def test_digest_detects_tampering(self):
        payload = snap().to_dict()
        payload["checkpoint_lsn"] += 1
        with pytest.raises(ValueError, match="digest mismatch"):
            Snapshot.from_dict(payload)

    def test_digest_is_content_stable(self):
        assert snap().digest() == snap().digest()
        assert snap().digest() != snap(checkpoint_lsn=99).digest()

    def test_missing_digest_is_rejected_not_trusted(self):
        """Every producer writes the key; a payload without it cannot
        be verified, so it is refused like a mismatch — even when
        nothing else was touched."""
        payload = snap().to_dict()
        del payload["digest"]
        with pytest.raises(ValueError, match="digest missing"):
            Snapshot.from_dict(payload)
        payload["digest"] = None
        with pytest.raises(ValueError, match="digest mismatch"):
            Snapshot.from_dict(payload)

    def test_digest_is_computed_from_the_payload_never_copied(self):
        payload = snap().to_dict()
        payload["digest"] = "0" * 32
        with pytest.raises(ValueError, match="digest mismatch"):
            Snapshot.from_dict(payload)
        payload["digest"] = snap().digest()
        assert Snapshot.from_dict(payload).digest() == snap().digest()

    def test_unknown_format_version_rejected(self):
        payload = snap().to_dict()
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            Snapshot.from_dict(payload)


class TestShipped:
    """The wire form: canonical text per body field beside the digest."""

    @settings(max_examples=100, deadline=None)
    @given(snapshot=snapshots())
    def test_round_trip(self, snapshot):
        arrived = Snapshot.from_shipped(snapshot.shipped())
        assert arrived == replace(
            snapshot,
            removed=sorted(snapshot.removed),
            sessions=snapshot.sessions or None,
        )
        assert arrived.digest() == snapshot.digest()
        assert arrived.texts["table"] == canonical_json(snapshot.table)

    def test_built_once(self):
        original = snap()
        assert original.shipped() is original.shipped()
        assert original.shipped()["digest"] == original.digest()

    def test_table_text_altered_digest_kept(self):
        shipped = snap().shipped()
        texts = dict(shipped["texts"])
        texts["table"] = texts["table"].replace(
            '"subscriber":3', '"subscriber":4'
        )
        with pytest.raises(ValueError, match="digest mismatch"):
            Snapshot.from_shipped({**shipped, "texts": texts})

    def test_scalar_altered(self):
        shipped = snap().shipped()
        texts = {**shipped["texts"], "taken_at": "8.25"}
        with pytest.raises(ValueError, match="digest mismatch"):
            Snapshot.from_shipped({**shipped, "texts": texts})

    def test_digest_missing(self):
        with pytest.raises(ValueError, match="digest missing"):
            Snapshot.from_shipped({"texts": snap().shipped()["texts"]})

    def test_identical_table_text_reuses_the_held_parse(self):
        held = Snapshot.from_shipped(snap().shipped())
        again = Snapshot.from_shipped(snap(snapshot_id=1).shipped(), held)
        assert again.table is held.table
        assert again.snapshot_id == 1

    def test_different_table_text_is_parsed(self):
        held = Snapshot.from_shipped(snap().shipped())
        other = Snapshot(snapshot_id=1, checkpoint_lsn=20, table=TABLE_2)
        arrived = Snapshot.from_shipped(other.shipped(), held)
        assert arrived.table is not held.table
        assert arrived.table == json.loads(canonical_json(TABLE_2))
        assert arrived == other


class TestMemoryStore:
    def test_latest_is_highest_id(self):
        store = MemorySnapshotStore()
        assert store.latest() is None
        store.save(snap(snapshot_id=0))
        store.save(snap(snapshot_id=2, checkpoint_lsn=50))
        store.save(snap(snapshot_id=1))
        assert store.latest().snapshot_id == 2
        assert store.ids() == [0, 1, 2]


class TestFileStore:
    def test_save_and_latest(self, tmp_path):
        store = FileSnapshotStore(tmp_path / "snaps")
        store.save(snap(snapshot_id=0))
        store.save(snap(snapshot_id=1, checkpoint_lsn=40))
        latest = store.latest()
        assert latest.snapshot_id == 1
        assert latest.checkpoint_lsn == 40
        assert store.ids() == [0, 1]

    def test_corrupt_newest_falls_back_to_previous_valid(self, tmp_path):
        store = FileSnapshotStore(tmp_path)
        store.save(snap(snapshot_id=0))
        store.save(snap(snapshot_id=1, checkpoint_lsn=40))
        newest = store._path(1)
        # A torn write: only half the JSON made it to disk.
        newest.write_text(newest.read_text()[: newest.stat().st_size // 2])
        latest = store.latest()
        assert latest.snapshot_id == 0

    def test_digest_tampered_newest_skipped(self, tmp_path):
        store = FileSnapshotStore(tmp_path)
        store.save(snap(snapshot_id=0))
        store.save(snap(snapshot_id=1, checkpoint_lsn=40))
        newest = store._path(1)
        payload = json.loads(newest.read_text())
        payload["checkpoint_lsn"] = 9999  # digest no longer matches
        newest.write_text(json.dumps(payload))
        assert store.latest().snapshot_id == 0

    def test_newest_with_digest_deleted_is_skipped(self, tmp_path):
        """Deleting the key while editing the body must not defeat the
        check: ``latest`` falls back to the previous valid snapshot."""
        store = FileSnapshotStore(tmp_path)
        store.save(snap(snapshot_id=0))
        store.save(snap(snapshot_id=1, checkpoint_lsn=40))
        newest = store._path(1)
        payload = json.loads(newest.read_text())
        del payload["digest"]
        payload["checkpoint_lsn"] = 9999
        newest.write_text(json.dumps(payload))
        latest = store.latest()
        assert latest.snapshot_id == 0
        assert latest.checkpoint_lsn == 17

    def test_all_corrupt_returns_none(self, tmp_path):
        store = FileSnapshotStore(tmp_path)
        store.save(snap(snapshot_id=0))
        store._path(0).write_text("{")
        assert store.latest() is None

    def test_ids_ignore_foreign_files(self, tmp_path):
        store = FileSnapshotStore(tmp_path)
        store.save(snap(snapshot_id=3))
        (tmp_path / "snapshot-notanumber.json").write_text("{}")
        (tmp_path / "other.txt").write_text("hi")
        assert store.ids() == [3]
