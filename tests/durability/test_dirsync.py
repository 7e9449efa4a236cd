"""Directory fsync after atomic renames (satellite: a freshly created
WAL or snapshot must survive a host crash, not just a process crash).

``os.replace`` makes the rename atomic, but until the *containing
directory* is fsynced the new directory entry may only exist in the
page cache — a power loss right after the rename can roll the file
back to its previous state, or to nothing at all for a fresh file.
These tests monkeypatch :func:`os.fsync` to record which descriptors
get synced and assert the directory's fd is among them.
"""

from __future__ import annotations

import os
import stat

import pytest

from repro.durability import FileWAL, RecordKind
from repro.durability.snapshot import FileSnapshotStore, Snapshot
from repro.io import atomic_write_text, fsync_dir


class _FsyncRecorder:
    """Wraps ``os.fsync`` and remembers whether any synced fd was a
    directory (fd identity is useless after close, so classify live)."""

    def __init__(self):
        self.dir_syncs = []
        self.calls = 0
        self._real = os.fsync

    def __call__(self, fd):
        self.calls += 1
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            self.dir_syncs.append(os.stat(fd).st_ino)
        return self._real(fd)


@pytest.fixture
def recorder(monkeypatch):
    recording = _FsyncRecorder()
    monkeypatch.setattr(os, "fsync", recording)
    return recording


def _inode(path) -> int:
    return os.stat(path).st_ino


class TestFsyncDir:
    def test_syncs_the_directory_descriptor(self, tmp_path, recorder):
        fsync_dir(tmp_path)
        assert recorder.dir_syncs == [_inode(tmp_path)]

    def test_missing_directory_is_tolerated(self, tmp_path, recorder):
        fsync_dir(tmp_path / "nonexistent")  # must not raise
        assert recorder.calls == 0


class TestAtomicWriteDurability:
    def test_atomic_write_text_syncs_the_parent(self, tmp_path, recorder):
        atomic_write_text(tmp_path / "out.json", "payload")
        assert _inode(tmp_path) in recorder.dir_syncs


class TestWalDurability:
    def test_fresh_wal_creation_syncs_the_parent(self, tmp_path, recorder):
        FileWAL(tmp_path / "broker.wal")
        assert _inode(tmp_path) in recorder.dir_syncs

    def test_store_rewrite_syncs_the_parent(self, tmp_path, recorder):
        wal = FileWAL(tmp_path / "broker.wal")
        wal.append(RecordKind.PUBLISH, {"seq": 0, "targets": [1]})
        recorder.dir_syncs.clear()
        # truncate_prefix rewrites the file via tmp + os.replace.
        wal.truncate_prefix(wal.end_lsn)
        assert _inode(tmp_path) in recorder.dir_syncs


class TestSnapshotDurability:
    def test_snapshot_save_syncs_the_store_directory(
        self, tmp_path, recorder
    ):
        store = FileSnapshotStore(tmp_path / "snapshots")
        recorder.dir_syncs.clear()
        store.save(
            Snapshot(
                snapshot_id=1,
                checkpoint_lsn=0,
                table={"dimension": 1, "subscriptions": []},
            )
        )
        assert _inode(tmp_path / "snapshots") in recorder.dir_syncs


class TestDataBeforeRename:
    def test_the_temp_file_is_synced_before_it_is_renamed(
        self, tmp_path, monkeypatch
    ):
        """A rename that reaches the disk before the data leaves an
        empty or short file at the path after a host crash."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode):
                events.append(("fsync", info.st_ino))
            return real_fsync(fd)

        def replace(source, target):
            events.append(("replace", os.stat(source).st_ino))
            return real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        atomic_write_text(tmp_path / "out.json", "payload")
        renames = [i for i, (kind, _) in enumerate(events) if kind == "replace"]
        assert len(renames) == 1
        renamed = events[renames[0]][1]
        assert ("fsync", renamed) in events[: renames[0]]
        assert (tmp_path / "out.json").read_text() == "payload"
