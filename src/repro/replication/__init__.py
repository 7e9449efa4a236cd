"""Broker replication: WAL shipping, epoch fencing, failover.

PR 4's durability stack lets a crashed home broker restart *itself*
from its own WAL.  This package removes the "itself": a
:class:`ReplicaSet` (:mod:`~repro.replication.group`) ships the
primary's journal to ranked standbys (:mod:`~repro.replication.
shipping`) and promotes the best live one by replaying its shipped WAL
through the existing recovery pipeline, fenced against the old primary
by monotonic epochs (:mod:`~repro.replication.epoch`).
:class:`ReplicatedBrokerGroup` is a lone set around a whole broker,
watched by a clock-injected heartbeat detector per standby
(:mod:`~repro.replication.detector`);
:class:`repro.cluster.ReplicatedShard` is one shard of a cluster.  The
chaos-harness integration — with the per-event ledger proving
exactly-once across takeovers — is
:class:`repro.faults.FailoverChaosSimulation`.
"""

from .detector import FailureDetector, HeartbeatConfig
from .epoch import EpochDirectory, EpochState, ReplicaRole
from .group import ReplicaSet, ReplicatedBrokerGroup, ReplicationStats
from .shipping import (
    LogShipper,
    ShippingConfig,
    ShippingStats,
    StandbyReplica,
)

__all__ = [
    "FailureDetector",
    "HeartbeatConfig",
    "EpochDirectory",
    "EpochState",
    "ReplicaRole",
    "ReplicaSet",
    "ReplicatedBrokerGroup",
    "ReplicationStats",
    "LogShipper",
    "ShippingConfig",
    "ShippingStats",
    "StandbyReplica",
]
