"""Corruption fuzzing: recovery must never raise, whatever the damage.

The WAL's contract is "truncate, don't trust": any torn tail or
flipped bit inside the log body must leave :func:`repro.durability.
recover` with a clean, usable prefix.  These tests hammer that with
seeded random damage — every truncation point and every bit position
in a realistic log — and are the `durability-smoke` CI job's fuzz
leg.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.subscription import SubscriptionTable
from repro.durability import (
    MemorySnapshotStore,
    MemoryWAL,
    RecordKind,
    Snapshot,
    recover,
)
from repro.io import table_to_dict


def build_log():
    """A realistic mixed log: churn, intents, completions, checkpoints."""
    wal = MemoryWAL(clock=lambda: 1.0)
    for sid in range(8):
        wal.append(
            RecordKind.SUBSCRIBE,
            {
                "sid": sid,
                "subscriber": 100 + sid,
                "lows": [0.0, float(sid)],
                "highs": [1.0, sid + 1.0],
            },
        )
    wal.append(RecordKind.UNSUBSCRIBE, {"sid": 3})
    for seq in range(10):
        wal.append(
            RecordKind.PUBLISH,
            {
                "seq": seq,
                "publisher": 5,
                "targets": [100 + (seq % 4), 104],
            },
        )
        if seq % 2 == 0:
            wal.append(
                RecordKind.DELIVER, {"seq": seq, "target": 100 + (seq % 4)}
            )
    wal.append(RecordKind.CHECKPOINT, {"snapshot_id": 0, "lsn": 0})
    return wal


def build_store():
    table = SubscriptionTable(2)
    store = MemorySnapshotStore()
    store.save(
        Snapshot(snapshot_id=0, checkpoint_lsn=0, table=table_to_dict(table))
    )
    return store


def damaged_copy(body, base):
    wal = MemoryWAL()
    wal._store(base, body)
    return wal


def test_every_truncation_point_recovers():
    pristine = build_log()
    body = pristine._load()
    base = pristine.base_lsn
    for cut in range(len(body) + 1):
        wal = damaged_copy(body[:cut], base)
        state = recover(wal, MemorySnapshotStore())  # must not raise
        assert wal.scan().clean
        assert state.truncated_bytes >= 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_bit_flips_recover(seed):
    rng = np.random.default_rng(seed)
    pristine = build_log()
    body = bytearray(pristine._load())
    base = pristine.base_lsn
    for _ in range(40):
        mutated = bytearray(body)
        for _ in range(int(rng.integers(1, 4))):
            position = int(rng.integers(len(mutated)))
            mutated[position] ^= 1 << int(rng.integers(8))
        wal = damaged_copy(bytes(mutated), base)
        state = recover(wal, build_store())  # must not raise
        # Whatever survived is a clean log and a coherent state.
        assert wal.scan().clean
        assert state.digest() == recover(
            damaged_copy(wal._load(), wal.base_lsn), build_store()
        ).digest()


@pytest.mark.parametrize("seed", [7, 8])
def test_random_tears_then_appends(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        wal = build_log()
        wal.tear_tail(int(rng.integers(1, 200)))
        state = recover(wal, MemorySnapshotStore())
        assert wal.scan().clean
        # A repaired log accepts new traffic at the valid end.
        lsn = wal.append(RecordKind.DELIVER, {"seq": 99, "target": 1})
        assert lsn == state.valid_end
        assert wal.scan().clean
