"""An integer field that decodes as ±inf is damaged input, not a crash.

JSON's ``Infinity`` decodes to a float that ``int()`` refuses with
``OverflowError`` rather than ``ValueError``.  ``recover`` promises
never to raise on a damaged body (it counts the record in
``skipped``), and ``RetainedEventLog.read`` promises to skip an
undecodable record; both hold for such a body on a memory and a file
WAL, and the records around it are still read.
"""

from __future__ import annotations

import pytest

from repro.durability import (
    FileWAL,
    MemorySnapshotStore,
    MemoryWAL,
    RecordKind,
    recover,
)
from repro.sessions.log import RetainedEventLog

INF = float("inf")


@pytest.fixture(params=["memory", "file"])
def wal(request, tmp_path):
    if request.param == "memory":
        return MemoryWAL()
    return FileWAL(tmp_path / "wal.bin")


def subscribe(sid):
    return {"sid": sid, "subscriber": 4, "lows": [0.0], "highs": [1.0]}


@pytest.mark.parametrize(
    "kind, body",
    [
        (RecordKind.PUBLISH, {"publisher": 1, "seq": INF, "targets": [2]}),
        (RecordKind.PUBLISH, {"publisher": -INF, "seq": 9, "targets": [2]}),
        (RecordKind.PUBLISH, {"publisher": 1, "seq": 9, "targets": [INF]}),
        (RecordKind.DELIVER, {"seq": INF, "target": 2}),
        (RecordKind.SUBSCRIBE, subscribe(INF)),
        (RecordKind.UNSUBSCRIBE, {"sid": -INF}),
    ],
    ids=str,
)
def test_recover_skips_an_infinite_int(wal, kind, body):
    wal.append(RecordKind.SUBSCRIBE, subscribe(0))
    wal.append(kind, body)
    wal.append(RecordKind.SUBSCRIBE, subscribe(1))
    wal.append(RecordKind.PUBLISH, {"publisher": 1, "seq": 5, "targets": [3]})
    state = recover(wal, MemorySnapshotStore())
    assert state.skipped == 1
    assert state.replayed == 3
    assert len(state.table) == 2
    assert list(state.inflight) == [5]


@pytest.mark.parametrize("field", ["seq", "publisher"])
def test_retained_log_skips_an_infinite_int(wal, field):
    log = RetainedEventLog(wal=wal)
    first = {"seq": 1, "publisher": 2, "point": [0.5]}
    wal.append(RecordKind.EVENT, first)
    wal.append(RecordKind.EVENT, dict(first, **{field: INF}))
    wal.append(RecordKind.EVENT, dict(first, seq=3))
    events = log.read(wal.base_lsn)
    assert [event.sequence for event in events] == [1, 3]
