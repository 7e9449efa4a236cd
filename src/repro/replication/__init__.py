"""Broker replication: WAL shipping, epoch fencing, failover.

PR 4's durability stack lets a crashed home broker restart *itself*
from its own WAL.  This package removes the "itself": a
:class:`ReplicaSet` (:mod:`~repro.replication.group`) ships the
primary's journal to ranked standbys (:mod:`~repro.replication.
shipping`) and promotes the best live one by replaying its shipped WAL
through the existing recovery pipeline, fenced against the old primary
by monotonic epochs (:mod:`~repro.replication.epoch`).  There is one
replica class and one failure detector: :class:`repro.cluster.
ReplicatedShard` is the set around one shard broker, and the
cluster-wide :class:`repro.cluster.Membership` decides when its
primary is gone.  A one-shard cluster (``repro chaos --cluster
--shards 1``) is a whole broker replicated, verified by
:class:`repro.faults.FullStackChaosSimulation`'s per-event ledger
across takeovers.
"""

from .epoch import EpochDirectory, EpochState, ReplicaRole
from .group import ReplicaSet, ReplicationStats
from .shipping import (
    LogShipper,
    ShippingConfig,
    ShippingStats,
    StandbyReplica,
)

__all__ = [
    "EpochDirectory",
    "EpochState",
    "ReplicaRole",
    "ReplicaSet",
    "ReplicationStats",
    "LogShipper",
    "ShippingConfig",
    "ShippingStats",
    "StandbyReplica",
]
