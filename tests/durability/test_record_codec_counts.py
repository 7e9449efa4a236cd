"""Counts, not stopwatches: what a journal record costs to write and read.

``canonical_json`` encodes with one C encoder built at import, so a
journal that writes a hundred records constructs no ``JSONEncoder`` and
calls ``json.encoder.c_make_encoder`` zero times (``JSONEncoder.encode``
builds a new C encoder on every call: ~1 a record means the cache is
gone).  A scan of a canonically written log decodes every body with the
cached scanner and calls ``json.loads`` zero times; only a body the
scanner cannot take whole, as here one stored with a leading space, is
handed on to it — the one call counted below shows the counter works.
"""

from __future__ import annotations

import json
import json.encoder

from repro.durability import (
    BrokerJournal,
    FileWAL,
    MemorySnapshotStore,
    MemoryWAL,
    RecordKind,
    recover,
)
from repro.faults.verifier import build_chaos_testbed
from tests.durability.test_wal_machine import _framed


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that logs each call."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def journal_records(wal, events=25):
    broker, _ = build_chaos_testbed(seed=5, subscriptions=40, dynamic=True)
    journal = BrokerJournal(
        broker, wal, MemorySnapshotStore(), checkpoint_every=10_000
    )
    for seq in range(events):
        journal.log_publish(seq, 1, [2, 3, 4], "unicast", 0)
        for target in (2, 3, 4):
            if seq or target != 2:  # intent 0 stays in flight
                journal.log_delivery(seq, target)
    return journal


def test_writing_records_builds_no_encoder(monkeypatch):
    wal = MemoryWAL(clock=lambda: 2.5)
    encoders = counting(monkeypatch, json.encoder, "c_make_encoder")
    inits = counting(monkeypatch, json.JSONEncoder, "__init__")
    journal_records(wal)
    assert wal.appends == 99
    assert (len(encoders), len(inits)) == (0, 0)
    # The counters see what JSONEncoder.encode does.
    json.JSONEncoder(sort_keys=True).encode({"a": [1]})
    assert (len(encoders), len(inits)) == (1, 1)


def test_scanning_a_canonical_log_calls_json_loads_zero_times(
    monkeypatch, tmp_path
):
    for wal in (MemoryWAL(), FileWAL(tmp_path / "wal.bin")):
        journal_records(wal)
        loads = counting(monkeypatch, json, "loads")
        scan = wal.scan()
        assert len(scan.records) == 99 and scan.clean
        state = recover(wal, MemorySnapshotStore())
        assert state.replayed == 99 and set(state.inflight) == {0}
        assert loads == []
        wal._append_bytes(
            _framed(bytes([RecordKind.DELIVER]) + b' {"seq":0,"target":2}')
        )
        assert len(wal.scan().records) == 100
        assert len(loads) == 1
        monkeypatch.undo()
