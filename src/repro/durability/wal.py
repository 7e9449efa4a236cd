"""The write-ahead log: append-only, CRC-checked, seekable records.

Physical layout (all integers little-endian)::

    header:  MAGIC b"REPROWAL" | version u8 | base_lsn u64
    record:  payload_length u32 | crc32(payload) u32 | payload
    payload: kind u8 | canonical JSON body (utf-8)

An **LSN** is the logical byte offset of a record's first header byte,
counted from the beginning of the log's *lifetime* — prefix truncation
(checkpointing) rewrites the physical file but bumps ``base_lsn`` so
every surviving record keeps its original LSN, and readers can seek by
LSN forever.

The scan path is the whole point of the format: :meth:`WriteAheadLog.
scan` walks records front to back, verifying the length prefix and the
CRC of every payload, and stops — without raising — at the first
evidence of a torn write (fewer bytes than the header promises) or
corruption (CRC mismatch, absurd length, bad kind or body).  Recovery
then :meth:`~WriteAheadLog.repair`\\ s the log by truncating the
physical tail at the last valid record, which is exactly the "truncate,
don't replay garbage" contract crash recovery needs.  A body is decoded
by ``json.loads``'s own scanner, built once, and kept when it is one
object spanning the whole text (as every canonical body is); any other
text goes to ``json.loads`` itself, which accepts it or names the fault.

The log also keeps an in-memory **index**: the LSNs at which a walk (or
its own ``append``) has already framed and validated a record.  It says
where records *start* — so a seek reads only the records it returns,
and a cut inside a record is refused — never that the stored bytes are
still good: every record any walk returns is re-checked, length, CRC,
kind and body, against what storage holds at that moment.

*Appends* are fsync-free by design (the simulation's crash model
decides what survives, not the page cache), but the file-backed log
does fsync the containing *directory* after creating a fresh file and
after every atomic rewrite — an :func:`os.replace` whose directory
entry never reached disk silently un-creates the log on a host crash,
which is a durability gap no crash model should paper over.  Both
implementations take an injected ``clock`` — records are stamped with
simulated time, never wall time.
"""

from __future__ import annotations

import enum
import json
import os
import struct
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Generator, List, NamedTuple, Optional, Tuple

from ..core.distribution import typed_eq
from ..io import atomic_write_bytes, canonical_json, open_append

__all__ = [
    "RecordKind",
    "WalRecord",
    "ScanResult",
    "WriteAheadLog",
    "MemoryWAL",
    "FileWAL",
]

_MAGIC = b"REPROWAL"
_VERSION = 1
_HEADER = struct.Struct("<8sBQ")          # magic, version, base_lsn
_RECORD_HEADER = struct.Struct("<II")     # payload length, crc32(payload)
_RECORD_START = struct.Struct("<IIB")     # ... and the payload's kind byte

#: Upper bound on one payload; anything larger in a length prefix is
#: treated as corruption, not as a 4 GiB allocation request.
MAX_PAYLOAD = 16 * 1024 * 1024


class RecordKind(enum.IntEnum):
    """What one WAL record describes."""

    SUBSCRIBE = 1      # a subscription entered the table
    UNSUBSCRIBE = 2    # a subscription was withdrawn (tombstoned)
    PUBLISH = 3        # an event-publish intent with its tracked targets
    DELIVER = 4        # one (event, target) delivery completed (acked)
    CHECKPOINT = 5     # a snapshot covering everything before this LSN
    MIGRATE_BEGIN = 6  # a subset copy to a new shard started (handoff digest)
    MIGRATE_CUTOVER = 7  # ownership flipped; the shard-map epoch bumped
    MIGRATE_DONE = 8   # migration finished (or aborted pre-cutover)
    EVENT = 9          # a published event retained for session replay
    SESSION = 10       # a subscriber-session lifecycle change
    CURSOR = 11        # a session's delivery cursor advanced (on ack)


class WalRecord(NamedTuple):
    """One decoded record: where it sits, what it says."""

    lsn: int
    kind: RecordKind
    body: dict
    #: LSN of the byte just past this record, as the walk found it (the
    #: stored JSON need not be the canonical encoding of ``body``).
    end_lsn: int

    __eq__, __ne__, __hash__ = typed_eq, object.__ne__, tuple.__hash__


@dataclass(frozen=True)
class ScanResult:
    """Everything one front-to-back WAL scan established."""

    records: Tuple[WalRecord, ...]
    #: LSN just past the last valid record (= where appends resume
    #: after :meth:`WriteAheadLog.repair`).
    valid_end: int
    #: Human-readable reason the scan stopped early, or ``None`` when
    #: every byte decoded cleanly.
    corruption: Optional[str] = None

    @property
    def clean(self) -> bool:
        return self.corruption is None


#: crc32 of each kind byte alone: a payload's CRC continues from it.
_KIND_CRC = {int(kind): zlib.crc32(bytes([kind])) for kind in RecordKind}
#: Each kind by its byte (a miss asks ``RecordKind``, which refuses it).
_KINDS = {int(kind): kind for kind in RecordKind}
#: ``json.loads``'s own scanner, built once: ``(value, end index)``.
_SCAN = json.scanner.make_scanner(json.JSONDecoder())


def encode_record(kind: RecordKind, body: dict) -> bytes:
    """One length-prefixed, CRC-protected record as raw bytes (the body
    as canonical JSON); a payload no walk would accept is refused."""
    text = canonical_json(body).encode("utf-8")
    if len(text) >= MAX_PAYLOAD:
        raise ValueError(
            f"a {len(text) + 1}-byte payload exceeds MAX_PAYLOAD {MAX_PAYLOAD}"
        )
    crc = zlib.crc32(text, _KIND_CRC[kind])
    return _RECORD_START.pack(len(text) + 1, crc, kind) + text


class WriteAheadLog:
    """The storage-agnostic WAL contract (and its shared walk).

    Subclasses supply raw-byte primitives (:meth:`_size`, :meth:`_read`,
    :meth:`_append_bytes`, :meth:`_replace`); everything else — framing,
    CRC verification, torn-tail detection, LSN arithmetic, the record
    index, corruption injection — lives here, so the in-memory and
    file-backed logs are bit-compatible.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self.appends = 0
        self._base = 0
        #: The index, ascending: the LSN of every record walks have
        #: validated so far, contiguous from the base, then the LSN just
        #: past the last.  Bytes stored behind its back lie past it.
        self._marks: List[int] = [0]

    # -- storage primitives (subclass responsibility) -----------------------

    def _size(self) -> int:
        """How many bytes storage holds after the header, right now."""
        raise NotImplementedError

    def _read(self, offset: int, size: int) -> bytes:
        """``size`` bytes starting ``offset`` bytes after the header."""
        raise NotImplementedError

    def _append_bytes(self, data: bytes) -> None:
        raise NotImplementedError

    def _replace(self, base_lsn: int, data: bytes) -> None:
        """Atomically replace the stored header and body."""
        raise NotImplementedError

    # -- bytes and the index -------------------------------------------------

    def _load(self) -> bytes:
        """Every byte after the header, in LSN order."""
        return self._read(0, self._size())

    def _store(self, base_lsn: int, data: bytes) -> None:
        """Replace the whole log body (and its base LSN); drops the index."""
        self._replace(base_lsn, data)
        self._base = base_lsn
        self._forget()

    def _forget(self) -> None:
        self._marks = [self._base]

    def _index(self) -> List[int]:
        """The index, once a walk has covered every stored byte it can."""
        end = self.end_lsn
        if self._marks[-1] < end:
            for _ in self.records(self._marks[-1]):
                pass
        return self._marks

    # -- the public contract -------------------------------------------------

    @property
    def base_lsn(self) -> int:
        """LSN of the first physically retained byte."""
        return self._base

    @property
    def end_lsn(self) -> int:
        """LSN one past the last physically stored byte."""
        end = self._base + self._size()
        if end < self._marks[-1]:
            self._forget()  # storage shrank behind the index's back
        return end

    def lsns(self) -> List[int]:
        """The LSN of every valid record, oldest first, off the index."""
        return self._index()[:-1]

    def append(self, kind: RecordKind, body: dict) -> int:
        """Durably append one record; returns its LSN.

        The record is stamped with the injected clock (key ``"t"``)
        unless the caller already supplied one.
        """
        if "t" not in body:
            body = {**body, "t": float(self.clock())}
        data = encode_record(kind, body)
        lsn = self.end_lsn
        self._append_bytes(data)
        if lsn == self._marks[-1]:
            self._marks.append(lsn + len(data))
        self.appends += 1
        return lsn

    def records(
        self, from_lsn: Optional[int] = None
    ) -> Generator[WalRecord, None, Tuple[int, Optional[str]]]:
        """Decode records front to back, lazily, stopping at the first damage.

        The one place a record is decoded.  ``from_lsn`` (a record
        boundary, e.g. a checkpoint LSN) seeks before decoding; records
        are never split across the base, so seeking below ``base_lsn``
        reads from the physical start.  A walk from the start loads the
        body once; a seek reads only the records it yields, in windows
        sized by the index (a first seek completes it with one walk)
        that double as the reader goes on.  A body the cached scanner
        does not take whole as an object is ``json.loads``'s to accept or
        refuse.  The generator *returns* ``(valid_end, corruption)`` as
        :class:`ScanResult` reports them.
        """
        base, end = self._base, self.end_lsn
        if from_lsn is None:
            lsn, data = base, self._load()
            end = base + len(data)
        else:
            lsn, data = max(from_lsn, base), b""
            if self._marks[-1] < lsn <= end:
                self._index()
        origin, reach, corruption = lsn, 1, None
        window = origin + len(data)  # LSN just past the bytes in hand
        header = _RECORD_HEADER.size
        while lsn < end:
            remaining = end - lsn
            if remaining < header:
                corruption = (
                    f"torn record header at lsn {lsn} "
                    f"({remaining} of {header} bytes)"
                )
                break
            if lsn + header > window:
                marks = self._marks
                i = bisect_left(marks, lsn)
                span = remaining
                if i + 1 < len(marks) and marks[i] == lsn:
                    span = marks[min(i + reach, len(marks) - 1)] - lsn
                    reach *= 2
                origin, data = lsn, self._read(lsn - base, span)
                window = origin + len(data)
            length, crc = _RECORD_HEADER.unpack_from(data, lsn - origin)
            if length == 0 or length > MAX_PAYLOAD:
                corruption = (
                    f"implausible payload length {length} at lsn {lsn}"
                )
                break
            stop = lsn + header + length  # where this record ends
            if stop > end:
                corruption = (
                    f"torn payload at lsn {lsn} "
                    f"({remaining - header} of {length} bytes)"
                )
                break
            if stop > window:
                # The index only sizes reads; the stored length decides.
                origin, data = lsn, self._read(lsn - base, remaining)
                window = origin + len(data)
            start = lsn - origin + header
            payload = data[start : start + length]
            if zlib.crc32(payload) != crc:
                corruption = f"CRC mismatch at lsn {lsn}"
                break
            try:
                kind = _KINDS.get(payload[0]) or RecordKind(payload[0])
                text = payload[1:].decode("utf-8")
                try:  # an object that is the whole text, at C speed
                    body, at = _SCAN(text, 0)
                except (StopIteration, ValueError):
                    at = -1
                if at != len(text) or type(body) is not dict:
                    body = json.loads(text)  # accepts or refuses the rest
                    if not isinstance(body, dict):
                        raise ValueError("body is not an object")
            except (ValueError, UnicodeDecodeError) as error:
                corruption = f"undecodable payload at lsn {lsn}: {error}"
                break
            if lsn == self._marks[-1]:
                self._marks.append(stop)
            yield WalRecord(lsn, kind, body, stop)
            lsn = stop
        if corruption is not None and lsn < self._marks[-1]:
            self._forget()  # damage where the index promised a record
        return min(lsn, end), corruption

    def scan(self, from_lsn: Optional[int] = None) -> ScanResult:
        """:meth:`records`, all of them, plus why the walk stopped."""
        walk = self.records(from_lsn)
        records: List[WalRecord] = []
        try:
            while True:
                records.append(next(walk))
        except StopIteration as stop:
            return ScanResult(tuple(records), *stop.value)

    def repair(self) -> int:
        """Truncate the physical tail at the last valid record.

        Returns the number of bytes discarded (0 for a clean log).
        Idempotent: repairing a clean log is a no-op.  Walks only what
        no walk has validated yet.
        """
        end = self.end_lsn
        marks = self._index()
        removed = end - marks[-1]
        if removed:
            self._store(self._base, self._read(0, marks[-1] - self._base))
            self._marks = marks  # the bytes kept are the ones it covers
        return removed

    def truncate_prefix(self, lsn: int) -> int:
        """Drop every byte below ``lsn`` (a record boundary).

        The checkpoint path: once a snapshot covers everything before
        ``lsn`` — *and* no live in-flight intent sits below it — the
        prefix is dead weight.  Surviving records keep their LSNs via
        ``base_lsn``.  Returns the number of bytes dropped.

        ``lsn`` must not exceed :attr:`end_lsn`: silently clamping a
        past-head cut would discard records the caller believes are
        retained (the retention low-water contract — truncating at
        exactly a live cursor's LSN must *keep* that record).  Nor may
        it fall inside a valid record: what is left of that record
        would read as corruption and the next ``repair`` would discard
        every record after it.  Truncating at or below ``base_lsn`` is
        a no-op, truncating at exactly ``end_lsn`` empties the log, and
        past the valid records (a damaged tail) any byte may be cut.
        """
        base = self._base
        if lsn <= base:
            return 0
        end = self.end_lsn
        if lsn > end:
            raise ValueError(
                f"truncate_prefix: lsn {lsn} lies past the log head "
                f"{end} (base_lsn {base})"
            )
        marks = self._index()
        i = bisect_left(marks, lsn)
        if i < len(marks) and marks[i] != lsn:
            raise ValueError(
                f"truncate_prefix: lsn {lsn} is not a record boundary "
                f"(it falls inside the record at lsn {marks[i - 1]}, "
                f"which ends at {marks[i]})"
            )
        self._store(lsn, self._read(lsn - base, end - lsn))
        if i < len(marks):
            self._marks = marks[i:]
        return lsn - base

    # -- corruption injection (the fault plan's hooks) ----------------------

    def tear_tail(self, nbytes: int) -> int:
        """Simulate a torn write: the last ``nbytes`` never hit disk.

        Returns the number of bytes actually removed (the log never
        tears past its own header).
        """
        if nbytes <= 0:
            raise ValueError(
                f"tear_tail: nbytes must be positive (got {nbytes})"
            )
        data = self._load()
        cut = min(int(nbytes), len(data))
        if cut:
            self._store(self.base_lsn, data[:-cut])
        return cut

    def flip_bit(self, offset_from_end: int, bit: int = 0) -> bool:
        """Simulate media corruption: flip one bit near the tail.

        ``offset_from_end`` counts bytes back from the physical end
        (1 = last byte).  Returns False when the log is too short to
        contain that byte.
        """
        if offset_from_end < 1:
            raise ValueError(
                "flip_bit: offset_from_end must be >= 1 "
                f"(got {offset_from_end})"
            )
        if not 0 <= bit <= 7:
            raise ValueError(f"flip_bit: bit must lie in 0..7 (got {bit})")
        data = bytearray(self._load())
        if offset_from_end > len(data):
            return False
        data[-offset_from_end] ^= 1 << bit
        self._store(self.base_lsn, bytes(data))
        return True

    def dump(self) -> bytes:
        """Header + body as one byte string (digests, golden tests)."""
        return (
            _HEADER.pack(_MAGIC, _VERSION, self.base_lsn) + self._load()
        )

    # -- anti-entropy transfer ----------------------------------------------

    def copy_out(self) -> Tuple[int, bytes]:
        """The whole physical log as ``(base_lsn, body bytes)``.

        The replication catch-up payload: a standby that has fallen
        behind the primary's retained op buffer receives this and
        :meth:`copy_in`\\ s it, after which incremental shipping resumes
        from ``end_lsn``.
        """
        return self.base_lsn, self._load()

    def copy_in(self, base_lsn: int, data: bytes) -> None:
        """Atomically replace this log's contents with a shipped copy."""
        if base_lsn < 0:
            raise ValueError(
                f"copy_in: base_lsn must be >= 0 (got {base_lsn})"
            )
        self._store(int(base_lsn), bytes(data))


class MemoryWAL(WriteAheadLog):
    """A WAL living in a byte buffer — zero I/O, ideal for simulation."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        super().__init__(clock=clock)
        self._data = bytearray()

    def _size(self) -> int:
        return len(self._data)

    def _read(self, offset: int, size: int) -> bytes:
        return bytes(memoryview(self._data)[offset : offset + size])

    def _append_bytes(self, data: bytes) -> None:
        self._data.extend(data)

    def _replace(self, base_lsn: int, data: bytes) -> None:
        self._data = bytearray(data)


class FileWAL(WriteAheadLog):
    """A WAL backed by one file; rewrites are atomic (temp + replace).

    Appends go straight to the file (no fsync — see the module note);
    prefix truncation and repair rewrite through a temp file in the
    same directory and :func:`os.replace`, so a crash mid-rewrite
    leaves either the old or the new log, never a hybrid.

    **The file stays the authority.**  The one ``O_APPEND`` descriptor
    the handle keeps is a cache of the open, not state: every operation
    starts with one ``os.stat`` of the *path* (behind ``end_lsn``) that
    says how long the log is *and* which file the path leads to, and
    the descriptor is reopened first unless it holds that file.  So a
    second handle's appends and rewrites (``os.replace``: a new file)
    and outside damage are seen as if the path were opened every time.
    :meth:`close`, ``with`` and garbage collection release the
    descriptor; the next operation reopens it.
    """

    #: The descriptor and the ``(st_dev, st_ino)`` of the file it holds.
    _fd = _held = None

    def __init__(
        self,
        path: str | Path,
        clock: Optional[Callable[[], float]] = None,
    ):
        super().__init__(clock=clock)
        self.path = Path(path)
        self._fspath = os.fspath(self.path)  # what every os.stat reads
        if self.path.exists():
            with self:  # refused or not, an unused handle holds no file
                self._read_header(os.pread(self._descriptor(), _HEADER.size, 0))
        else:
            # Atomic creation + directory fsync: without the fsync, a
            # host crash after creation leaves no WAL at all and
            # recovery would silently start from nothing.
            atomic_write_bytes(self.path, _HEADER.pack(_MAGIC, _VERSION, 0))

    def _read_header(self, raw: bytes) -> None:
        if len(raw) < _HEADER.size:
            raise ValueError(
                f"{self.path}: too short to be a WAL "
                f"({len(raw)} < {_HEADER.size} bytes)"
            )
        magic, version, base = _HEADER.unpack_from(raw)
        if magic != _MAGIC:
            raise ValueError(f"{self.path}: bad magic {magic!r}")
        if version != _VERSION:
            raise ValueError(
                f"{self.path}: unsupported WAL version {version}"
            )
        self._base = int(base)
        self._forget()

    def close(self) -> None:
        """Release the descriptor (idempotent; the next operation reopens)."""
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)
    __del__ = close

    def __enter__(self) -> FileWAL:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _descriptor(self) -> int:
        if self._fd is None:
            self._fd = open_append(self._fspath)
            status = os.fstat(self._fd)
            self._held = (status.st_dev, status.st_ino)
        return self._fd

    def _size(self) -> int:
        status = os.stat(self._fspath)
        if (status.st_dev, status.st_ino) != self._held:
            self.close()  # the path leads to another file now
        return max(0, status.st_size - _HEADER.size)

    def _read(self, offset: int, size: int) -> bytes:
        return os.pread(self._descriptor(), size, _HEADER.size + offset)

    def _append_bytes(self, data: bytes) -> None:
        # Append-only framing IS the durability primitive here: a torn
        # append is detected by the CRC scan and truncated by repair,
        # so the atomic-rewrite helper would be wrong (it would copy
        # the whole log per record).  The one sanctioned raw write
        # (retried while short: a full disk then raises its error).
        fd, rest = self._descriptor(), memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]  # repro: noqa IO01

    def _replace(self, base_lsn: int, data: bytes) -> None:
        atomic_write_bytes(
            self.path, _HEADER.pack(_MAGIC, _VERSION, base_lsn) + data
        )
        self.close()  # the path leads to the new file now
