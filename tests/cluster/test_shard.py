"""ReplicatedShard: shipping, fenced takeover, zombie demotion."""

import pytest

from repro.cluster import ReplicatedShard
from repro.core import Subscription
from repro.geometry import Rectangle
from repro.replication.epoch import EpochDirectory, ReplicaRole
from repro.sharding import ShardBroker


class _Clock:
    """Minimal simulator stand-in: just an advancing `.now`."""

    def __init__(self):
        self.now = 0.0


def _rect(lo, hi):
    return Rectangle((float(lo), float(lo)), (float(hi), float(hi)))


def _replicated(standbys=(7, 9), primary=0, **kwargs):
    clock = _Clock()
    shard_broker = ShardBroker(0, home=primary, ndim=2)
    shard = ReplicatedShard(
        shard_broker, primary, list(standbys), clock, **kwargs
    )
    return clock, shard_broker, shard


class TestConstruction:
    def test_zero_standbys_restart_in_place(self):
        """With nobody to promote, the primary's own WAL and store are
        what it restarts from: takeover with itself as the candidate."""
        clock, shard_broker, shard = _replicated(standbys=())
        for gid in range(3):
            shard_broker.register(
                Subscription(gid, gid * 10, _rect(gid, gid + 1))
            )
        shard.journal.log_publish(42, publisher=3, targets=[30, 31])
        shard.journal.log_delivery(42, 30)
        assert shard.takeover(clock.now, epoch=1) is None
        shard_broker.install({}, 0)  # the crash lost what was in memory
        directory = EpochDirectory()
        result = shard.restart(epoch=2, directory=directory)
        assert (result.old_home, result.new_home, result.epoch) == (0, 0, 2)
        assert result.entries == 3
        assert shard_broker.subscription_ids == [0, 1, 2]
        assert result.inflight[42].targets == (31,)
        assert shard.primary == 0 and shard.write_allowed(0)
        assert directory.entries() == ()  # nothing to redirect
        with pytest.raises(ValueError, match="takeover epoch must advance"):
            shard.restart(epoch=2)
        # The rebound journal keeps appending to the same log.
        shard_broker.register(Subscription(3, 30, _rect(3, 4)))
        assert shard.restart(epoch=3).entries == 4

    def test_standbys_distinct_and_exclude_primary(self):
        with pytest.raises(ValueError, match="distinct and exclude"):
            _replicated(standbys=(0, 7))
        with pytest.raises(ValueError, match="distinct and exclude"):
            _replicated(standbys=(7, 7))

    def test_roles_at_start(self):
        _, _, shard = _replicated()
        assert shard.epochs[0].role is ReplicaRole.PRIMARY
        assert shard.epochs[7].role is ReplicaRole.STANDBY
        assert shard.epochs[9].role is ReplicaRole.STANDBY
        assert shard.epoch == 0


class TestTakeover:
    def _loaded(self):
        clock, shard_broker, shard = _replicated()
        for gid in range(6):
            shard_broker.register(
                Subscription(gid, gid * 10, _rect(gid, gid + 1))
            )
        shard.journal.log_publish(42, publisher=3, targets=[30, 31])
        clock.now = 10.0
        shard.tick(clock.now)  # ship everything to both standbys
        return clock, shard_broker, shard

    def test_standby_recovers_the_entry_set(self):
        clock, shard_broker, shard = self._loaded()
        directory = EpochDirectory()
        shard.mark_dead(0)
        result = shard.takeover(clock.now, epoch=1, directory=directory)
        assert result is not None
        assert result.old_home == 0
        assert result.new_home == 7  # first-ranked standby
        assert result.entries == 6
        assert set(shard_broker._entries) == set(range(6))
        assert shard_broker.home == 7
        assert result.inflight[42].targets == (30, 31)
        assert directory.resolve(0) == 7

    def test_takeover_epoch_must_advance(self):
        clock, _, shard = self._loaded()
        shard.mark_dead(0)
        with pytest.raises(ValueError, match="takeover epoch must advance"):
            shard.takeover(clock.now, epoch=0)

    def test_stale_epoch_is_refused_before_anything_changes(self):
        """A repeated cluster epoch used to be noticed only after the
        candidate's replica was deleted and the live shard broker
        overwritten: the shard ended up homed on 9 with primary 7, no
        standby left, and the entry registered in between lost."""
        clock, shard_broker, shard = self._loaded()
        assert shard.takeover(clock.now, epoch=5).new_home == 7
        shard_broker.register(Subscription(6, 60, _rect(6, 7)))
        with pytest.raises(ValueError, match="takeover epoch must advance"):
            shard.takeover(clock.now, epoch=5)
        assert shard.primary == 7
        assert shard_broker.home == 7
        assert set(shard.replicas) == {9}
        assert shard.epochs[9].role is ReplicaRole.STANDBY
        assert shard.epoch == 5
        assert shard_broker.subscription_ids == list(range(7))
        # 9 is still a working standby: ship, then promote it properly.
        clock.now = 20.0
        shard.tick(clock.now)
        result = shard.takeover(clock.now, epoch=6)
        assert result.new_home == 9
        assert result.entries == 7
        assert shard_broker.home == 9

    def test_no_candidate_returns_none(self):
        clock, _, shard = self._loaded()
        shard.mark_dead(0)
        shard.mark_dead(7)
        shard.mark_dead(9)
        assert shard.takeover(clock.now, epoch=1) is None

    def test_eligibility_veto_skips_ranked_standby(self):
        clock, _, shard = self._loaded()
        shard.mark_dead(0)
        result = shard.takeover(
            clock.now, epoch=1, eligible=lambda node: node != 7
        )
        assert result.new_home == 9

    def test_takeover_digest_is_deterministic(self):
        digests = []
        for _ in range(2):
            clock, _, shard = self._loaded()
            shard.mark_dead(0)
            result = shard.takeover(clock.now, epoch=1)
            digests.append(result.digest)
        assert digests[0] == digests[1]


class TestFencing:
    def test_writes_fence_at_the_deposed_primary(self):
        clock, _, shard = _replicated()
        shard.tick(clock.now)
        shard.takeover(clock.now, epoch=1)  # partition-style: 0 not dead
        assert shard.primary == 7
        assert shard.write_allowed(7)
        assert not shard.write_allowed(0)  # old epoch 0 < shard epoch 1
        stats = shard.finalize_stats()
        assert stats.fenced_writes >= 1
        assert shard.epoch == 1

    def test_zombie_heartbeat_draws_a_fence(self):
        clock, _, shard = _replicated()
        shard.takeover(clock.now, epoch=1)
        # Node 0 still believes it is primary and keeps beating; the
        # survivors answer with a fence that demotes it.
        assert shard.epochs[0].is_primary
        clock.now = 10.0
        shard.tick(clock.now)
        assert not shard.epochs[0].is_primary
        assert shard.epochs[0].role is ReplicaRole.FENCED
        stats = shard.finalize_stats()
        assert stats.stale_rejections >= 1


class TestShipping:
    def test_invalidated_stream_recovers_via_catchup(self):
        clock, shard_broker, shard = _replicated()
        shard_broker.register(Subscription(1, 10, _rect(0, 1)))
        clock.now = 5.0
        shard.tick(clock.now)
        # The standby loses its stream position (scrubbed WAL): the
        # next batch must bounce into a resync + anti-entropy catch-up.
        shard.replicas[7].invalidate_stream()
        shard_broker.register(Subscription(2, 20, _rect(1, 2)))
        clock.now = 10.0
        shard.tick(clock.now)
        clock.now = 15.0
        shard.tick(clock.now)
        assert shard.shipping_stats().catchups >= 1
        # The rebased standby can still take over with full state.
        shard.mark_dead(0)
        result = shard.takeover(clock.now, epoch=1)
        assert result.new_home == 7
        assert result.entries == 2

    def test_lag_of_unacked_standby_is_zero(self):
        _, _, shard = _replicated()
        assert shard.lag_of(7) == 0
