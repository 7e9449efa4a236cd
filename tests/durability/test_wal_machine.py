"""Generated-schedule oracle for the write-ahead log's one walk.

A Hypothesis state machine drives a :class:`MemoryWAL` and a
:class:`FileWAL` through generated schedules of everything that puts
bytes into a log or takes them out — ``append``, raw well-framed
records whose stored JSON is *not* canonical (or is no object, no
JSON at all, or comes under a kind byte no record has), prefix
truncation at a record boundary, raw garbage, torn tails, flipped
bits, ``repair``, an anti-entropy ``copy_out`` → ``copy_in`` into a
second log, a reopen — and after two steps in three compares what the log reports with
:func:`reference_walk`: a copy, kept here on purpose, of the eager
front-to-back loop ``scan`` was before the log remembered where its
records start.  The reference sees only ``dump()``, so whatever the log
memoizes between calls, it has to keep answering as if it had re-read
every stored byte — records, ``valid_end`` and the corruption message
alike, from the start and from any LSN a reader may seek to.
"""

from __future__ import annotations

import json
import shutil
import struct
import tempfile
import zlib
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.durability import FileWAL, MemoryWAL, RecordKind
from repro.durability.wal import MAX_PAYLOAD

_HEADER = struct.Struct("<8sBQ")
_RECORD_HEADER = struct.Struct("<II")


def reference_walk(dump, from_lsn=None):
    """``(records, valid_end, corruption)`` by the eager walk, off bytes.

    ``records`` are ``(lsn, kind, body)`` triples; the messages are the
    ones ``scan`` has always produced.
    """
    _, _, base = _HEADER.unpack_from(dump)
    data = dump[_HEADER.size :]
    offset = 0
    if from_lsn is not None and from_lsn > base:
        offset = from_lsn - base
        if offset > len(data):
            return [], base + len(data), None
    records = []
    while offset < len(data):
        lsn = base + offset
        remaining = len(data) - offset
        if remaining < _RECORD_HEADER.size:
            return records, lsn, (
                f"torn record header at lsn {lsn} "
                f"({remaining} of {_RECORD_HEADER.size} bytes)"
            )
        length, crc = _RECORD_HEADER.unpack_from(data, offset)
        if length == 0 or length > MAX_PAYLOAD:
            return records, lsn, (
                f"implausible payload length {length} at lsn {lsn}"
            )
        start = offset + _RECORD_HEADER.size
        if start + length > len(data):
            return records, lsn, (
                f"torn payload at lsn {lsn} "
                f"({len(data) - start} of {length} bytes)"
            )
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            return records, lsn, f"CRC mismatch at lsn {lsn}"
        try:
            kind = RecordKind(payload[0])
            body = json.loads(payload[1:].decode("utf-8"))
            if not isinstance(body, dict):
                raise ValueError("body is not an object")
        except (ValueError, UnicodeDecodeError) as error:
            return records, lsn, (
                f"undecodable payload at lsn {lsn}: {error}"
            )
        records.append((lsn, kind, body))
        offset = start + length
    return records, base + offset, None


def _framed(payload):
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


_pick = st.integers(0, 2**16)
_kinds = st.sampled_from(list(RecordKind))
_bodies = st.dictionaries(
    st.sampled_from(["seq", "target", "sid", "a"]),
    st.one_of(st.integers(-5, 500), st.lists(st.integers(0, 9), max_size=3)),
    max_size=3,
)
#: Well-framed, CRC-valid payload texts that a decoder reading only
#: canonical objects would get wrong: each must be accepted, or refused
#: with its message, exactly as ``json.loads`` does.
_ODD_TEXTS = [
    b' {"a":1}', b'{"a":1} ', b'{"a":1}\n', b"\t{}", b"[1]", b"1",
    b'"s"', b"null", b'{"a":1}{"b":2}', b'{"a":1} x', b"NaN", b"Infinity",
    b"[NaN]", b'{"a":Infinity,"b":-Infinity}', b'{"a":1,"a":2}',
    b"\xff\xfe", b'{"a":"\xc3"}', b'{"a":1', b"", b"{", b"}",
    b'\xef\xbb\xbf{"a":1}', b'{"a":"\x01"}', b'{"a" : [1 , 2] }',
    b'{"\\ud800":"\\u00e9"}', b'{"a":1e400}', b"{}",
]
#: Every kind byte, and some no record has (refused as an unknown kind).
_kind_bytes = st.one_of(_kinds.map(int), st.sampled_from([0, 12, 255]))
#: What every rule appends before it does its own thing — ``(kind, body,
#: how it is stored)`` — so the schedules in which Hypothesis switched
#: the plain ``append`` rule off still have records to work on.  A body
#: is stored canonically (``True``), as ``json.dumps`` writes it
#: (``False``), or replaced by one of the odd texts under any kind byte.
_writes = st.lists(
    st.one_of(
        st.tuples(_kinds, _bodies, st.booleans()),
        st.tuples(_kind_bytes, st.just(None), st.sampled_from(_ODD_TEXTS)),
    ),
    max_size=3,
)


class WalMachine(RuleBasedStateMachine):
    backend = None  # set by the two subclasses below

    def __init__(self):
        super().__init__()
        self.directory = (
            Path(tempfile.mkdtemp()) if self.backend == "file" else None
        )
        self.wal = self._open("a")
        #: The anti-entropy target; trades places with ``wal`` after a
        #: copy so the schedule goes on over the log that was copied in.
        self.other = self._open("b")
        #: Every LSN something was ever written at — the cursors a
        #: reader may still hold, damage in front of them or not.
        self.written_at = [0]
        self.steps = 0

    def teardown(self):
        if self.directory is not None:
            shutil.rmtree(self.directory)

    def _open(self, name):
        if self.backend == "memory":
            return MemoryWAL(clock=lambda: 1.5)
        return FileWAL(self.directory / f"{name}.wal", clock=lambda: 1.5)

    def _boundaries(self):
        """Every valid record's LSN, then where the valid prefix ends."""
        records, valid_end, _ = reference_walk(self.wal.dump())
        return [lsn for lsn, _, _ in records] + [valid_end]

    # -- rules ---------------------------------------------------------------

    def _write(self, writes):
        for kind, body, canonical in writes:
            self.written_at.append(self.wal.end_lsn)
            if body is None:
                # A raw payload: ``canonical`` holds its text.
                self.wal._append_bytes(_framed(bytes([kind]) + canonical))
            elif canonical:
                assert self.wal.append(kind, body) == self.written_at[-1]
            else:
                # Well framed, CRC-valid, but stored with json.dumps'
                # default separators and key order: what another
                # writer could leave.
                stored = json.dumps({"t": 0.0, **body}).encode("utf-8")
                self.wal._append_bytes(_framed(bytes([int(kind)]) + stored))

    @rule(writes=_writes)
    def append(self, writes):
        self._write(writes)

    @rule(writes=_writes, pick=_pick, to_end=st.booleans())
    def truncate_prefix(self, writes, pick, to_end):
        self._write(writes)
        boundaries = self._boundaries()
        lsn = self.wal.end_lsn if to_end else boundaries[pick % len(boundaries)]
        base = self.wal.base_lsn
        assert self.wal.truncate_prefix(lsn) == max(0, lsn - base)
        assert self.wal.base_lsn == max(base, lsn)

    @rule(
        writes=_writes,
        how=st.sampled_from(["garbage", "tear", "flip"]),
        garbage=st.binary(min_size=1, max_size=24),
        reach=st.integers(1, 60),
        bit=st.integers(0, 7),
    )
    def damage(self, writes, how, garbage, reach, bit):
        self._write(writes)
        size = self.wal.end_lsn - self.wal.base_lsn
        if how == "garbage":
            self.written_at.append(self.wal.end_lsn)
            self.wal._append_bytes(garbage)
        elif how == "tear":
            assert self.wal.tear_tail(reach) == min(reach, size)
        else:
            assert self.wal.flip_bit(reach, bit) == (reach <= size)

    @rule(writes=_writes)
    def repair(self, writes):
        self._write(writes)
        _, valid_end, _ = reference_walk(self.wal.dump())
        end = self.wal.end_lsn
        assert self.wal.repair() == end - valid_end
        assert self.wal.end_lsn == valid_end
        assert self.wal.repair() == 0

    @rule(writes=_writes)
    def copy_to_the_other_log(self, writes):
        self._write(writes)
        self.other.copy_in(*self.wal.copy_out())
        assert self.other.dump() == self.wal.dump()
        self.wal, self.other = self.other, self.wal

    @precondition(lambda self: self.backend == "file")
    @rule(writes=_writes)
    def reopen(self, writes):
        self._write(writes)
        self.wal = FileWAL(self.wal.path, clock=self.wal.clock)

    @rule(writes=_writes, pick=_pick, held=st.booleans())
    def seek_anywhere(self, writes, pick, held):
        # Not only valid boundaries: a cursor held from before the
        # damage in front of it, or a plain wrong LSN, gets the answer
        # the stored bytes give.
        self._write(writes)
        span = self.wal.end_lsn - self.wal.base_lsn + 8
        self._same_as_reference(
            self.written_at[pick % len(self.written_at)]
            if held
            else self.wal.base_lsn - 4 + pick % span
        )

    # -- what must hold after every step -------------------------------------

    def _same_as_reference(self, from_lsn):
        expected = reference_walk(self.wal.dump(), from_lsn)
        result = self.wal.scan(from_lsn)
        assert (
            [(r.lsn, r.kind, r.body) for r in result.records],
            result.valid_end,
            result.corruption,
        ) == expected
        return result

    @invariant()
    def scans_equal_the_reference_walk(self):
        self.steps += 1
        if self.steps % 3 == 0:
            # Every third step goes unobserved: the next rule meets
            # what the last one left behind, not what a walk refreshed.
            return
        boundaries = self._boundaries()
        end = self.wal.end_lsn
        seeks = [
            boundaries[self.steps % len(boundaries)],
            boundaries[-1],
            self.wal.base_lsn - 1,
            end,
            end + 5,
        ]
        # Seek first on odd steps, walk everything first on even ones:
        # what the log remembers differs between the two orders.
        order = [None, *seeks] if self.steps % 2 else [*seeks, None]
        for from_lsn in order:
            self._same_as_reference(from_lsn)

    @invariant()
    def end_lsn_is_base_plus_stored_bytes(self):
        base, body = self.wal.copy_out()
        assert base == self.wal.base_lsn
        assert self.wal.end_lsn == base + len(body)

    @invariant()
    def lazy_walk_yields_what_scan_returns(self):
        if self.steps % 3 == 0:
            return
        boundaries = self._boundaries()
        assert self.wal.lsns() == boundaries[:-1]
        for from_lsn in (None, boundaries[len(boundaries) // 2]):
            result = self.wal.scan(from_lsn)
            assert tuple(self.wal.records(from_lsn)) == result.records
            # ...and each record knows where the walk found its end.
            starts = [r.lsn for r in result.records] + [result.valid_end]
            assert [r.end_lsn for r in result.records] == starts[1:]


class MemoryWalMachine(WalMachine):
    backend = "memory"


class FileWalMachine(WalMachine):
    backend = "file"


_SETTINGS = settings(
    max_examples=25, stateful_step_count=25, derandomize=True, deadline=None
)
TestMemoryWalMachine = MemoryWalMachine.TestCase
TestMemoryWalMachine.settings = _SETTINGS
TestFileWalMachine = FileWalMachine.TestCase
TestFileWalMachine.settings = _SETTINGS
