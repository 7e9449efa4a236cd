"""Replicated shard cluster: membership, per-shard failover, takeover.

The paper's §4 placement maps clustered subsets S_1..S_n onto servers
and assumes the servers stay up.  This package is the high-availability
closure of that assignment: each shard (one subset group from
:mod:`repro.sharding`) becomes a :class:`ReplicatedShard` — the one
:class:`~repro.replication.group.ReplicaSet` subclass; with one shard
it replicates the whole broker — while a cluster-wide :class:`Membership`
detector (suspicion → confirmed-dead hysteresis, epoch-stamped views)
decides when a shard home is gone and a fenced standby takeover must
re-home the subset.  The hash ring's ``exclude()`` stranding path from
PR 6 survives only as the last resort when a shard loses its primary
*and* every standby.

- :mod:`repro.cluster.membership` — who is alive, suspected, dead;
  one monotone view epoch over all configuration changes.
- :mod:`repro.cluster.journal` — what is a shard's own in the journal
  and the replay: :class:`ShardJournal`'s two global-id entry writers
  over :class:`~repro.durability.journal.BrokerJournal`, and the
  sparse entry-set fold :func:`recover_shard` hands
  :func:`~repro.durability.recovery.replay`.
- :mod:`repro.cluster.shard` — :class:`ReplicatedShard`: the shard
  broker's taps, the ``"shard"`` tag on the wire, and the
  cluster-stamped :meth:`~ReplicatedShard.takeover`.

The full-stack chaos harness exercising all of it under combined
failures lives in :mod:`repro.faults.cluster`.
"""

from .journal import RecoveredShardState, ShardJournal, recover_shard
from .membership import ClusterView, Membership, MemberState, MembershipConfig
from .shard import ReplicatedShard, TakeoverResult

__all__ = [
    "ClusterView",
    "Membership",
    "MemberState",
    "MembershipConfig",
    "RecoveredShardState",
    "ReplicatedShard",
    "ShardJournal",
    "TakeoverResult",
    "recover_shard",
]
