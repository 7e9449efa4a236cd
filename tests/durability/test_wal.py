"""The write-ahead log: framing, LSN arithmetic, damage detection."""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import zlib

import pytest

from repro.durability import FileWAL, MemoryWAL, RecordKind
from repro.durability.wal import MAX_PAYLOAD, encode_record

_RECORD_HEADER = struct.Struct("<II")


@pytest.fixture(params=["memory", "file"])
def make_wal(request, tmp_path):
    """Factory building either WAL flavour (they must be bit-compatible)."""
    counter = {"n": 0}

    def build(clock=None):
        if request.param == "memory":
            return MemoryWAL(clock=clock)
        counter["n"] += 1
        return FileWAL(tmp_path / f"wal-{counter['n']}.wal", clock=clock)

    return build


class TestRoundTrip:
    def test_append_scan_round_trip(self, make_wal):
        wal = make_wal()
        bodies = [
            (RecordKind.SUBSCRIBE, {"sid": 0, "subscriber": 7}),
            (RecordKind.PUBLISH, {"seq": 1, "targets": [3, 4]}),
            (RecordKind.DELIVER, {"seq": 1, "target": 3}),
        ]
        lsns = [wal.append(kind, dict(body)) for kind, body in bodies]
        result = wal.scan()
        assert result.clean
        assert [r.lsn for r in result.records] == lsns
        assert [r.kind for r in result.records] == [k for k, _ in bodies]
        for record, (_, body) in zip(result.records, bodies):
            for key, value in body.items():
                assert record.body[key] == value
        assert result.valid_end == wal.end_lsn
        assert wal.appends == 3

    def test_records_are_clock_stamped(self, make_wal):
        times = iter([4.5, 9.0])
        wal = make_wal(clock=lambda: next(times))
        wal.append(RecordKind.DELIVER, {"seq": 0, "target": 1})
        wal.append(RecordKind.DELIVER, {"seq": 0, "target": 2, "t": 1.25})
        first, second = wal.scan().records
        assert first.body["t"] == 4.5
        # A caller-supplied stamp wins over the clock.
        assert second.body["t"] == 1.25

    def test_end_lsn_matches_record_arithmetic(self, make_wal):
        wal = make_wal()
        wal.append(RecordKind.CHECKPOINT, {"snapshot_id": 0, "lsn": 0})
        (record,) = wal.scan().records
        assert record.end_lsn == wal.end_lsn

    def test_memory_and_file_are_bit_compatible(self, tmp_path):
        mem = MemoryWAL(clock=lambda: 2.0)
        disk = FileWAL(tmp_path / "twin.wal", clock=lambda: 2.0)
        for wal in (mem, disk):
            wal.append(RecordKind.SUBSCRIBE, {"sid": 0, "subscriber": 3})
            wal.append(RecordKind.PUBLISH, {"seq": 0, "targets": [3]})
        assert mem.dump() == disk.dump()

    def test_record_ends_are_where_the_walk_found_them(self, make_wal):
        # ``end_lsn`` used to be re-derived by re-encoding ``body`` as
        # canonical JSON; a well-framed, CRC-valid record another
        # writer stored with spaces then "ended" three bytes early, and
        # a cursor resumed from that number landed inside the record.
        wal = make_wal()
        wal.append(RecordKind.DELIVER, {"seq": 0, "target": 0})
        payload = bytes([int(RecordKind.DELIVER)]) + b'{"a": 1, "t": 0.0}'
        wal._append_bytes(
            _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        )
        wal.append(RecordKind.DELIVER, {"seq": 1, "target": 1})
        result = wal.scan()
        assert result.clean
        records = result.records
        assert [r.body.get("a") for r in records] == [None, 1, None]
        for before, after in zip(records, records[1:]):
            assert before.end_lsn == after.lsn
        assert records[-1].end_lsn == result.valid_end == wal.end_lsn
        # ...and a seek to any of them decodes exactly the next record.
        for before, after in zip(records, records[1:]):
            assert wal.scan(before.end_lsn).records[0] == after

    def test_file_wal_survives_reopen(self, tmp_path):
        path = tmp_path / "reopen.wal"
        first = FileWAL(path)
        lsn = first.append(RecordKind.DELIVER, {"seq": 9, "target": 1})
        reopened = FileWAL(path)
        result = reopened.scan()
        assert result.clean
        assert [r.lsn for r in result.records] == [lsn]
        assert reopened.base_lsn == first.base_lsn

    def test_file_wal_rejects_foreign_bytes(self, tmp_path):
        path = tmp_path / "not-a-wal"
        path.write_bytes(b"GARBAGE!" + b"\x00" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            FileWAL(path)
        short = tmp_path / "short"
        short.write_bytes(b"RE")
        with pytest.raises(ValueError, match="too short"):
            FileWAL(short)


class TestLsnStability:
    def test_truncate_prefix_preserves_lsns(self, make_wal):
        wal = make_wal()
        lsns = [
            wal.append(RecordKind.DELIVER, {"seq": i, "target": i})
            for i in range(4)
        ]
        dropped = wal.truncate_prefix(lsns[2])
        assert dropped == lsns[2] - lsns[0]
        assert wal.base_lsn == lsns[2]
        result = wal.scan()
        assert result.clean
        assert [r.lsn for r in result.records] == lsns[2:]
        # Appends after truncation continue the same LSN space.
        next_lsn = wal.append(RecordKind.DELIVER, {"seq": 9, "target": 9})
        assert next_lsn > lsns[-1]

    def test_truncate_below_base_is_noop(self, make_wal):
        wal = make_wal()
        first = wal.append(RecordKind.DELIVER, {"seq": 0, "target": 0})
        second = wal.append(RecordKind.DELIVER, {"seq": 0, "target": 1})
        wal.truncate_prefix(second)
        assert wal.truncate_prefix(first) == 0
        assert wal.base_lsn == second

    def test_truncate_empty_log_at_base_is_a_noop(self, make_wal):
        wal = make_wal()
        assert wal.truncate_prefix(wal.base_lsn) == 0
        assert wal.base_lsn == wal.end_lsn

    def test_truncate_at_head_empties_but_keeps_lsn_space(self, make_wal):
        wal = make_wal()
        for i in range(3):
            wal.append(RecordKind.DELIVER, {"seq": i, "target": i})
        base, head = wal.base_lsn, wal.end_lsn
        dropped = wal.truncate_prefix(head)
        assert dropped == head - base  # every retained byte went
        assert wal.base_lsn == wal.end_lsn == head
        assert wal.scan().records == ()
        # The LSN space continues monotonically after a full truncation.
        next_lsn = wal.append(RecordKind.DELIVER, {"seq": 9, "target": 9})
        assert next_lsn == head

    def test_truncate_past_head_raises_with_context(self, make_wal):
        # Must be a plain raise (not an assert): the message has to
        # survive `python -O`.
        wal = make_wal()
        wal.append(RecordKind.DELIVER, {"seq": 0, "target": 0})
        with pytest.raises(ValueError, match="lies past the log head"):
            wal.truncate_prefix(wal.end_lsn + 1)

    def test_truncate_inside_a_record_is_refused(self, make_wal):
        # The cut used to go through: the scan then stopped at the
        # half-record it left ("implausible payload length"), and the
        # repair recovery runs unprompted discarded the record after it
        # — an acknowledged write lost to an off-by-three in a caller.
        wal = make_wal()
        first = wal.append(RecordKind.DELIVER, {"seq": 0, "target": 0})
        second = wal.append(RecordKind.DELIVER, {"seq": 1, "target": 1})
        stored = wal.dump()
        for lsn in (first + 1, second - 3):
            with pytest.raises(ValueError) as error:
                wal.truncate_prefix(lsn)
            assert str(error.value) == (
                f"truncate_prefix: lsn {lsn} is not a record boundary "
                f"(it falls inside the record at lsn {first}, which ends "
                f"at {second})"
            )
        assert wal.dump() == stored  # refused before any byte moved
        assert wal.repair() == 0
        assert [r.lsn for r in wal.scan().records] == [first, second]

    def test_truncate_past_the_valid_records_still_cuts_bytes(self, make_wal):
        # Behind the last valid record nothing is vouched for, so there
        # is no boundary to respect: a damaged tail is cut as before.
        wal = make_wal()
        wal.append(RecordKind.DELIVER, {"seq": 0, "target": 0})
        valid_end = wal.end_lsn
        wal._append_bytes(b"\xff" * 12)
        assert wal.truncate_prefix(valid_end + 5) == valid_end + 5
        assert wal.base_lsn == valid_end + 5
        assert wal.end_lsn == valid_end + 12

    def test_truncate_refusals_survive_python_O(self):
        program = (
            "from repro.durability import MemoryWAL, RecordKind\n"
            "assert False  # proves -O is active: this must not raise\n"
            "wal = MemoryWAL()\n"
            "wal.append(RecordKind.DELIVER, {'seq': 0, 'target': 0})\n"
            "second = wal.append(RecordKind.DELIVER, {'seq': 1, 'target': 1})\n"
            "for lsn, message in (\n"
            "    (second - 3,\n"
            "     f'truncate_prefix: lsn {second - 3} is not a record '\n"
            "     f'boundary (it falls inside the record at lsn 0, which '\n"
            "     f'ends at {second})'),\n"
            "    (wal.end_lsn + 1,\n"
            "     f'truncate_prefix: lsn {wal.end_lsn + 1} lies past the '\n"
            "     f'log head {wal.end_lsn} (base_lsn 0)'),\n"
            "):\n"
            "    try:\n"
            "        wal.truncate_prefix(lsn)\n"
            "    except ValueError as error:\n"
            "        if str(error) != message:\n"
            "            raise SystemExit(f'wrong message: {error}')\n"
            "    else:\n"
            "        raise SystemExit(f'not raised under -O: {message}')\n"
            "if len(wal.scan().records) != 2:\n"
            "    raise SystemExit('a refused cut moved bytes under -O')\n"
            "print('OK')\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", program],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.strip() == "OK"

    def test_truncate_at_record_lsn_keeps_that_record(self, make_wal):
        # An LSN names a record's *first* byte: truncating at it drops
        # only the strictly-below prefix, so the record survives — the
        # contract retention's cursor low-water mark relies on.
        wal = make_wal()
        lsns = [
            wal.append(RecordKind.DELIVER, {"seq": i, "target": i})
            for i in range(2)
        ]
        wal.truncate_prefix(lsns[1])
        (survivor,) = wal.scan().records
        assert survivor.lsn == lsns[1]
        assert survivor.body["seq"] == 1

    def test_scan_from_lsn_seeks(self, make_wal):
        wal = make_wal()
        lsns = [
            wal.append(RecordKind.DELIVER, {"seq": i, "target": i})
            for i in range(3)
        ]
        result = wal.scan(from_lsn=lsns[1])
        assert [r.lsn for r in result.records] == lsns[1:]
        past = wal.scan(from_lsn=wal.end_lsn + 100)
        assert past.records == ()


class TestDamage:
    def _seed(self, wal, n=3):
        return [
            wal.append(RecordKind.DELIVER, {"seq": i, "target": i})
            for i in range(n)
        ]

    def test_torn_tail_stops_scan_without_raising(self, make_wal):
        wal = make_wal()
        lsns = self._seed(wal)
        assert wal.tear_tail(5) == 5
        result = wal.scan()
        assert not result.clean
        assert "torn" in result.corruption
        assert [r.lsn for r in result.records] == lsns[:2]
        assert result.valid_end == lsns[2]

    def test_bit_flip_fails_crc(self, make_wal):
        wal = make_wal()
        lsns = self._seed(wal)
        assert wal.flip_bit(3, bit=2)
        result = wal.scan()
        assert not result.clean
        assert "CRC mismatch" in result.corruption
        assert [r.lsn for r in result.records] == lsns[:2]

    def test_implausible_length_is_corruption(self, make_wal):
        wal = make_wal()
        lsns = self._seed(wal, n=1)
        wal._append_bytes(_RECORD_HEADER.pack(MAX_PAYLOAD + 1, 0))
        result = wal.scan()
        assert not result.clean
        assert "implausible" in result.corruption
        assert [r.lsn for r in result.records] == lsns

    def test_an_oversize_append_is_refused_before_a_byte_moves(
        self, make_wal
    ):
        """A payload over ``MAX_PAYLOAD`` would read back as that very
        corruption, and ``repair`` would discard it *and every
        acknowledged record after it*."""
        wal = make_wal()
        first = wal.append(RecordKind.DELIVER, {"seq": 0, "target": 0})
        end, dump = wal.end_lsn, wal.dump()
        with pytest.raises(ValueError, match="exceeds MAX_PAYLOAD"):
            wal.append(RecordKind.EVENT, {"blob": "x" * (MAX_PAYLOAD + 10)})
        assert (wal.end_lsn, wal.dump(), wal.appends) == (end, dump, 1)
        last = wal.append(RecordKind.DELIVER, {"seq": 2, "target": 2})
        assert [r.lsn for r in wal.scan().records] == [first, last]
        assert wal.repair() == 0
        # The largest payload a walk accepts is still accepted.
        text = len('{"blob":"","t":0.0}')
        big = wal.append(
            RecordKind.EVENT, {"blob": "x" * (MAX_PAYLOAD - 1 - text)}
        )
        result = wal.scan(big)
        assert result.clean and len(result.records) == 1
        assert result.valid_end - big == _RECORD_HEADER.size + MAX_PAYLOAD

    def test_undecodable_payload_is_corruption(self, make_wal):
        import zlib

        wal = make_wal()
        payload = bytes([int(RecordKind.DELIVER)]) + b"not json"
        wal._append_bytes(
            _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        )
        result = wal.scan()
        assert not result.clean
        assert "undecodable" in result.corruption

    def test_repair_truncates_at_last_valid_record(self, make_wal):
        wal = make_wal()
        lsns = self._seed(wal)
        end_before = wal.end_lsn
        wal.tear_tail(7)
        removed = wal.repair()
        # Everything from the damaged record on is gone, not just the
        # missing bytes.
        assert removed == end_before - 7 - lsns[2]
        result = wal.scan()
        assert result.clean
        assert [r.lsn for r in result.records] == lsns[:2]
        # Idempotent, and the log accepts appends again.
        assert wal.repair() == 0
        wal.append(RecordKind.DELIVER, {"seq": 9, "target": 9})
        assert wal.scan().clean

    def test_tear_never_removes_the_header(self, make_wal):
        wal = make_wal()
        self._seed(wal, n=1)
        body = wal.end_lsn - wal.base_lsn
        assert wal.tear_tail(10_000) == body
        assert wal.scan().records == ()

    def test_injector_validation(self, make_wal):
        wal = make_wal()
        with pytest.raises(ValueError, match="nbytes must be positive"):
            wal.tear_tail(0)
        with pytest.raises(ValueError, match="offset_from_end"):
            wal.flip_bit(0)
        with pytest.raises(ValueError, match="bit must lie in 0..7"):
            wal.flip_bit(1, bit=8)
        assert wal.flip_bit(10) is False  # shorter than the offset


class TestSharedFile:
    """The file, not the handle, says how long a ``FileWAL`` is."""

    def _seed(self, wal, start, n):
        return [
            wal.append(RecordKind.DELIVER, {"seq": i, "target": i})
            for i in range(start, start + n)
        ]

    def test_second_handle_sees_later_appends(self, tmp_path):
        path = tmp_path / "shared.wal"
        writer = FileWAL(path)
        early = self._seed(writer, 0, 2)
        reader = FileWAL(path)
        assert [r.lsn for r in reader.scan(early[1]).records] == early[1:]
        late = self._seed(writer, 2, 3)
        assert reader.end_lsn == writer.end_lsn
        assert [r.lsn for r in reader.scan().records] == early + late
        assert [r.lsn for r in reader.scan(late[1]).records] == late[1:]
        assert [r.body["seq"] for r in reader.scan(late[2]).records] == [4]

    def test_file_cut_short_behind_a_handle_reads_as_a_torn_tail(
        self, tmp_path
    ):
        path = tmp_path / "cut.wal"
        wal = FileWAL(path)
        lsns = self._seed(wal, 0, 4)
        assert len(wal.scan(lsns[1]).records) == 3  # every record walked
        os.truncate(path, os.path.getsize(path) - 5)
        for from_lsn, survivors in ((None, lsns[:3]), (lsns[2], lsns[2:3])):
            result = wal.scan(from_lsn)
            assert [r.lsn for r in result.records] == survivors
            assert result.valid_end == lsns[3]
            assert "torn payload" in result.corruption
        assert wal.scan(lsns[3]).records == ()
        # Repair and carry on, on the same handle.
        torn_end = wal.end_lsn
        assert wal.repair() == torn_end - lsns[3]
        again = wal.append(RecordKind.DELIVER, {"seq": 9, "target": 9})
        assert again == lsns[3]
        assert [r.lsn for r in wal.scan().records] == lsns
        # Cut exactly at a record boundary there is no torn tail to
        # stumble on: only the file's length says the record is gone.
        os.truncate(path, os.path.getsize(path) - (wal.end_lsn - lsns[3]))
        assert wal.repair() == 0
        assert [r.lsn for r in wal.scan(lsns[1]).records] == lsns[1:3]
        assert wal.truncate_prefix(lsns[3]) == lsns[3]
        assert wal.base_lsn == wal.end_lsn == lsns[3]

    def test_bytes_damaged_behind_a_handle_are_reported_and_repaired(
        self, tmp_path
    ):
        path = tmp_path / "flipped.wal"
        wal = FileWAL(path)
        lsns = self._seed(wal, 0, 4)
        assert len(wal.scan(lsns[1]).records) == 3  # every record walked
        raw = bytearray(path.read_bytes())
        raw[-(wal.end_lsn - lsns[2]) + 10] ^= 0x04  # inside record 2
        path.write_bytes(bytes(raw))
        for from_lsn in (lsns[1], None):
            result = wal.scan(from_lsn)
            assert result.valid_end == lsns[2]
            assert result.corruption == f"CRC mismatch at lsn {lsns[2]}"
        end = wal.end_lsn
        assert wal.repair() == end - lsns[2]
        assert [r.lsn for r in wal.scan().records] == lsns[:2]

    def test_a_record_rewritten_longer_behind_a_handle_is_read_whole(
        self, tmp_path
    ):
        path = tmp_path / "rewritten.wal"
        reader = FileWAL(path)
        lsns = self._seed(reader, 0, 2)
        assert len(reader.scan(lsns[1]).records) == 1
        writer = FileWAL(path)
        writer.tear_tail(writer.end_lsn - lsns[1])
        writer.append(RecordKind.DELIVER, {"seq": 1, "target": [7] * 9})
        # The reader remembers a shorter record at that LSN; what the
        # file holds decides.
        for from_lsn in (lsns[1], None):
            result = reader.scan(from_lsn)
            assert result.clean
            assert result.records[-1].body["target"] == [7] * 9
            assert result.valid_end == reader.end_lsn == writer.end_lsn


def test_encode_record_is_deterministic():
    a = encode_record(RecordKind.PUBLISH, {"seq": 1, "targets": [2, 3]})
    b = encode_record(RecordKind.PUBLISH, {"targets": [2, 3], "seq": 1})
    assert a == b  # canonical JSON: key order cannot matter
