"""Replay must decode what it replays, not the retained log per event.

A machine-independent guard: the crash scenario is run at ``n`` and at
``4n`` events while this file counts WAL record decodes from outside —
it wraps the JSON decoder as the ``wal`` module sees it; nothing in
``src/`` counts for it.  With retention bounding the log, decodes grow
with events replayed and retention passes made, so four times the
events may cost at most five times the decodes.  When every
one-event read re-decoded the whole retained suffix the ratio was 10.7
(3 272 → 34 884 decodes) for the same replay traffic.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

from repro.durability import wal as wal_module
from repro.faults import build_session_chaos

N = 150


def _decodes(events, monkeypatch):
    calls = [0]

    def counting_loads(text):
        calls[0] += 1
        return json.loads(text)

    with monkeypatch.context() as patch:
        patch.setattr(
            wal_module,
            "json",
            SimpleNamespace(loads=counting_loads, dumps=json.dumps),
        )
        simulation, points, publishers, times = build_session_chaos(
            "crash", seed=2003, events=events
        )
        report = simulation.run(points, publishers, times)
    assert report.accounted and report.duplicates == 0
    assert report.replay_sends > 0  # the path under guard actually ran
    return calls[0], report.replay_sends


def test_decodes_grow_with_events_not_with_events_times_log(monkeypatch):
    small, small_replays = _decodes(N, monkeypatch)
    large, large_replays = _decodes(4 * N, monkeypatch)
    assert large_replays > small_replays
    assert large <= 5 * small, (
        f"{small} decodes at {N} events, {large} at {4 * N}: "
        "a WAL read is decoding more than the records it returns"
    )
