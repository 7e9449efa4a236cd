"""A cross-commit oracle: ``repro chaos`` stdout, pinned byte for byte.

Every other chaos oracle compares a run with another run of the same
commit (same seed twice, sharded against unsharded), so a change that
moved *all* the digests would still pass them.  These files were
captured on the commit before the harnesses were moved onto
``PubSubBroker.plan`` / ``repro.faults.dispatch`` and pin one scenario
per mode — ledgers, counters, match / recovery / takeover / session
digests.

``cluster-k1`` was added when the whole-broker failover harness became
the one-shard cluster (it pins that mode's ``catchup`` scenario, the
one the K = 4 files do not cover), and ``cluster-restart`` replaced
``crash-recovery`` when that harness became the zero-standby one-shard
cluster, its home restarting from its own WAL.  ``cluster-no-standby``
replaced ``sharded`` when the sharded harness became the zero-standby
cluster: the same ledger, verdict and match digest, but the killed home
is excluded once the membership view confirms it dead rather than at
the kill, so the wire rows moved (4 442 link transmissions against
3 552).  ``cluster`` and ``cluster-k1`` were re-pinned when a journal
record stopped re-shipping unacked batches and heartbeats began riding
on batches: the verdicts held, while the wire and shipping rows, the
takeover digest (the standby held a different WAL prefix at takeover)
and the stale rejections moved, and ``cluster`` lost its one stranded
miss (6 755 link transmissions against 5 163).  A change that means to
move a digest regenerates the file with::

    PYTHONPATH=src python -m repro.cli chaos <arguments> \\
        --events 100 --subscriptions 150 > tests/golden/chaos/<name>.txt

and says so, with the cause, in CHANGES.md.  Any other change that
fails here changed behaviour it should not have.
"""

import re
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent.parent / "golden" / "chaos"

SCENARIOS = {
    "default": [],
    "overload": ["--overload"],
    "cluster": ["--cluster"],
    "cluster-no-standby": ["--cluster", "--standbys", "0"],
    "cluster-k1": [
        "--cluster", "--shards", "1", "--cluster-scenario", "catchup"
    ],
    "cluster-restart": [
        "--cluster", "--shards", "1", "--standbys", "0",
        "--cluster-scenario", "restart", "--crash-length", "20",
    ],
    "sessions": ["--sessions"],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_chaos_stdout_is_byte_identical(name, capsys):
    main(
        ["chaos", *SCENARIOS[name], "--events", "100", "--subscriptions", "150"]
    )
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


WALL_CLOCK = re.compile(
    r"^( *(?:events/sec|match latency p\d\d \(us\)) +)\S+$", re.MULTILINE
)


def _normalised(stats_stdout):
    """The four wall-clock values become ``*``; runs of spaces and of
    dashes collapse, because the first table's column width follows the
    widest wall-clock value and so differs from run to run."""
    text = WALL_CLOCK.sub(r"\1*", stats_stdout)
    return re.sub(r"-+", "-", re.sub(r" +", " ", text))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stats_stdout_is_pinned(name, capsys):
    """``repro stats`` on the chaos goldens' scenarios, wall clock aside.

    ``default`` and ``cluster`` were captured on the commit before
    ``stats`` was moved onto the scenario assembly of ``chaos`` and its
    section ladder became a table.  ``overload`` was captured after it:
    the move put its crash windows where ``chaos --overload`` puts
    them, which changed its retry, ack and link rows.  ``cluster-k1``
    is new with the one-shard cluster; every file lost the replication
    section's "inactive" hint with it.  ``cluster-restart`` is new with
    the zero-standby restart; the two older cluster files then began
    counting their takeover's replay under "recoveries".
    ``cluster-no-standby`` replaced ``sharded`` (the first file ``stats``
    pinned for a sharded run) with the chaos file of that name.
    ``sessions`` is new with the sessions harness publishing through
    ``PubSubBroker.plan``: before it, ``stats`` refused ``--sessions``.
    Every file then gained the "link transmissions / event" row, and
    ``cluster`` and ``cluster-k1`` moved with their chaos files when
    heartbeats began riding on shipped batches.
    """
    code = main(
        ["stats", *SCENARIOS[name], "--events", "100", "--subscriptions", "150"]
    )
    golden = GOLDEN.parent / "stats" / f"{name}.txt"
    assert _normalised(capsys.readouterr().out) == _normalised(
        golden.read_text()
    )
    assert code == 0
