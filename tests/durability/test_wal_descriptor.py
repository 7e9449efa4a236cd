"""``FileWAL`` holds its descriptor; the path still says which file.

What an append costs (one ``stat``, one ``write``, no ``open``), who is
believed when the path and the held descriptor disagree (the path), and
that the descriptor is a cache: closed, dropped or collected, the log
carries on.
"""

from __future__ import annotations

import gc
import os
import random

import pytest

from repro.durability import FileWAL, MemoryWAL, RecordKind
from repro.durability.wal import _HEADER


def seed(wal, start, n):
    return [
        wal.append(RecordKind.DELIVER, {"seq": i, "target": i})
        for i in range(start, start + n)
    ]


def seqs(wal, from_lsn=None):
    return [r.body["seq"] for r in wal.scan(from_lsn).records]


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls an append may or may not make."""
    import builtins
    import io

    made = {}

    def spy(owner, name, label):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            made[label] = made.get(label, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(os, "stat", "stat")
    spy(os, "write", "write")
    spy(os, "pread", "pread")
    spy(os, "open", "os.open")
    spy(builtins, "open", "open")
    spy(io, "open", "open")
    return made


class TestSyscalls:
    def test_an_append_is_one_stat_and_one_write(self, tmp_path, calls):
        wal = FileWAL(tmp_path / "guard.wal")
        seed(wal, 0, 1)  # the first append opens the descriptor
        calls.clear()
        lsns = seed(wal, 1, 50)
        assert calls == {"stat": 50, "write": 50}
        assert [r.lsn for r in wal.scan(lsns[0]).records] == lsns

    def test_opening_a_log_reads_the_header_not_the_log(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "long.wal"
        with FileWAL(path) as wal:
            lsns = seed(wal, 0, 40)
        monkeypatch.setattr(
            type(path), "read_bytes", lambda self: pytest.fail("whole file")
        )
        sizes = []
        real = os.pread
        monkeypatch.setattr(
            os, "pread", lambda fd, n, at: sizes.append(n) or real(fd, n, at)
        )
        with FileWAL(path) as again:
            assert sizes == [_HEADER.size]
            assert again.lsns() == lsns

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"REPRO", "too short to be a WAL (5 < 17 bytes)"),
            (b"NOTAWAL!" + bytes(99), "bad magic b'NOTAWAL!'"),
            (b"REPROWAL\x07" + bytes(98), "unsupported WAL version 7"),
        ],
    )
    def test_a_bad_header_is_refused_and_nothing_stays_open(
        self, tmp_path, content, message
    ):
        path = tmp_path / "bad.wal"
        path.write_bytes(content)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(ValueError) as error:
            FileWAL(path)
        assert str(error.value) == f"{path}: {message}"
        assert len(os.listdir("/proc/self/fd")) == before


class TestReplacedBehindAHandle:
    """The path, not the held descriptor, says which file is the log."""

    def test_another_handle_truncates_the_prefix(self, tmp_path):
        path = tmp_path / "shared.wal"
        a = FileWAL(path)
        lsns = seed(a, 0, 3)
        b = FileWAL(path)
        inode = os.stat(path).st_ino
        assert b.truncate_prefix(lsns[1]) == lsns[1]
        assert os.stat(path).st_ino != inode  # a rewrite is a new file
        seed(a, 3, 1)
        # The record is in the file the path leads to ...
        assert seqs(FileWAL(path)) == [1, 2, 3]
        # ... and both handles read that file.
        assert seqs(a) == seqs(b) == [1, 2, 3]
        assert a.scan().clean and b.scan().clean
        seed(b, 4, 1)
        assert seqs(a) == seqs(b) == [1, 2, 3, 4]

    def test_another_handle_repairs_a_torn_tail(self, tmp_path):
        path = tmp_path / "torn.wal"
        a = FileWAL(path)
        lsns = seed(a, 0, 3)
        b = FileWAL(path)
        b.tear_tail(4)
        assert "torn payload" in a.scan().corruption
        torn_end = a.end_lsn
        assert b.repair() == torn_end - lsns[2]
        assert seed(a, 7, 1) == [lsns[2]]
        assert seqs(a) == seqs(b) == [0, 1, 7]

    def test_deleted_and_recreated(self, tmp_path):
        path = tmp_path / "recreated.wal"
        a = FileWAL(path)
        seed(a, 0, 3)
        path.unlink()
        c = FileWAL(path)
        seed(c, 10, 1)
        seed(a, 11, 1)
        assert seqs(a) == seqs(c) == seqs(FileWAL(path)) == [10, 11]

    def test_own_rewrite_then_a_raw_append(self, tmp_path):
        # ``_append_bytes`` with no ``stat`` since the handle's own
        # rewrite (the damage tests append raw bytes this way).
        wal = FileWAL(tmp_path / "own.wal")
        lsns = seed(wal, 0, 2)
        wal.tear_tail(wal.end_lsn - lsns[1])
        wal._append_bytes(b"\x01\x02\x03")
        assert wal.dump().endswith(b"\x01\x02\x03")
        assert wal.repair() == 3


class TestDescriptorLifecycle:
    def test_close_is_idempotent_and_the_next_operation_reopens(
        self, tmp_path
    ):
        wal = FileWAL(tmp_path / "closed.wal")
        seed(wal, 0, 2)
        wal.close()
        wal.close()
        assert wal._fd is None
        assert seqs(wal) == [0, 1]
        wal.close()
        seed(wal, 2, 1)
        assert seqs(wal) == [0, 1, 2]

    def test_with_releases_the_descriptor(self, tmp_path):
        before = len(os.listdir("/proc/self/fd"))
        with FileWAL(tmp_path / "with.wal") as wal:
            seed(wal, 0, 2)
            assert len(os.listdir("/proc/self/fd")) == before + 1
        assert len(os.listdir("/proc/self/fd")) == before
        assert seqs(wal) == [0, 1]  # still a log, reopened on demand

    def test_dropped_logs_do_not_leak_descriptors(self, tmp_path):
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for cycle in range(300):
            wal = FileWAL(tmp_path / f"cycle{cycle % 3}.wal")
            seed(wal, cycle, 2)
            del wal
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before

    def test_a_log_that_may_not_be_written_can_still_be_read(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "readonly.wal"
        with FileWAL(path) as wal:
            seed(wal, 0, 3)
        real = os.open

        def refuse_writing(target, flags, *rest):
            # What the kernel says for a file without write permission
            # (the tests may run as root, whom a chmod does not stop).
            if flags & (os.O_RDWR | os.O_WRONLY):
                raise PermissionError(13, "Permission denied", str(target))
            return real(target, flags, *rest)

        monkeypatch.setattr(os, "open", refuse_writing)
        with FileWAL(path) as wal:
            assert seqs(wal) == [0, 1, 2]
            with pytest.raises(OSError):
                seed(wal, 3, 1)
            assert seqs(wal) == [0, 1, 2]


class TestSameBytesAsTheMemoryLog:
    @pytest.mark.parametrize("schedule", range(6))
    def test_dump_after_every_step(self, tmp_path, schedule):
        rng = random.Random(schedule)
        logs = [MemoryWAL(), FileWAL(tmp_path / "twin.wal")]
        for log in logs:
            log.clock = lambda: 0.5 * schedule
        for step in range(120):
            roll = rng.random()
            if roll < 0.7:
                body = {"seq": step, "target": [step] * rng.randrange(4)}
                kind = rng.choice(list(RecordKind))
                results = [log.append(kind, body) for log in logs]
            elif roll < 0.85:
                boundaries = logs[0].lsns() + [logs[0].end_lsn]
                cut = rng.choice(boundaries)
                results = [log.truncate_prefix(cut) for log in logs]
            else:
                nbytes = rng.randrange(1, 40)
                results = [
                    (log.tear_tail(nbytes), log.repair()) for log in logs
                ]
            assert results[0] == results[1]
            assert logs[0].dump() == logs[1].dump()
        assert logs[0].scan() == logs[1].scan()
        assert logs[1].dump() == (tmp_path / "twin.wal").read_bytes()
