"""Failover determinism: same seed, same takeover, same state.

Run on the one-shard cluster, where the shard is the whole broker.
Byte-identical standby WALs are an invariant of the journal state
machine (``tests/durability/test_journal_machine.py``) and matching
after a takeover is held to an unsharded never-failed broker by every
cluster run's digest parity; what is left to pin here is that two
seeded runs suspect, promote and recover at the same instants with the
same state fingerprint.
"""

from tests.cluster.test_chaos_cluster import _run


class TestTakeoverDeterminism:
    def test_repeated_runs_produce_identical_takeover_digests(self):
        _, _, _, first = _run("kill", seed=2003, shards=1)
        _, _, _, second = _run("kill", seed=2003, shards=1)
        assert first.cluster.takeovers == 1
        assert (
            first.cluster.takeover_digests
            == second.cluster.takeover_digests
        )
        assert (
            first.cluster.takeover_durations
            == second.cluster.takeover_durations
        )
        assert first.delivered == second.delivered
        assert first.finished_at == second.finished_at
