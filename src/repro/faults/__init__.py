"""Fault injection, reliable delivery, and chaos verification.

The paper's model (and the seed reproduction) assumes a perfectly
reliable substrate.  This package supplies the other half of the
story, in three layers:

- :mod:`repro.faults.plan` — a deterministic, seedable fault injector:
  per-link loss/duplication/delay, link outage windows, broker
  crash/restart windows, pluggable into the packet simulator and
  queryable as a failure detector;
- :mod:`repro.faults.reliable` — per-message acks, exponential-backoff
  retries with deterministic jitter, bounded retry budgets, and
  per-subscriber dedup, turning at-least-once retransmission into
  exactly-once application delivery;
- :mod:`repro.faults.verifier` — the chaos harness: replay a workload
  under a fault plan and verify (or precisely refute) the delivery
  guarantee, exposed as the ``repro chaos`` CLI subcommand;
- :mod:`repro.faults.overload` — the saturation harness: the same
  replay behind the full overload-protection stack
  (:mod:`repro.overload`), with strict shed/expire accounting and
  per-subscriber circuit breakers (``repro chaos --overload``);
- :mod:`repro.faults.cluster` — the sharded, full-stack harness: the
  workload routed across K shard brokers (:mod:`repro.sharding`) with
  live migrations, every shard a :mod:`repro.cluster` replicated group
  journaling to a write-ahead log (:mod:`repro.durability`), under a
  cluster-wide membership detector.  One rule answers a dead home: a
  standby succeeds it, or else it is excluded and rebalanced; a
  crashed home restarts from its own WAL (crash windows wipe volatile
  state and may corrupt that log), and a partitioned one nobody can
  succeed is waited for.  Every run proves the same outcome ledger
  *and* per-event match parity with a single unsharded broker
  (``repro chaos --cluster``; with ``--standbys 0`` it is the plain
  sharded harness, with ``--shards 1`` one whole broker, and with
  ``--shards 1 --standbys 0 --cluster-scenario restart`` the
  durability harness);
- :mod:`repro.faults.sessions` — the subscriber-side harness: durable
  sessions (:mod:`repro.sessions`) at deterministic stub nodes abused
  by scripted crash / flap / slow-consumer / poison scenarios, with a
  per-(event, session) ledger proving ``delivered + deadlettered +
  expired == matched`` with zero duplicates across reconnects and
  catch-up replay (``repro chaos --sessions``).
"""

from .cluster import (
    ClusterReport,
    ClusterStats,
    FullStackChaosSimulation,
    PlannedMigration,
    StandbyWALCorruption,
    build_cluster_plan,
    unsharded_match_digest,
)
from .overload import OverloadChaosSimulation, OverloadReport
from .plan import (
    BrokerCrash,
    BrokerKill,
    FaultInjector,
    FaultPlan,
    FaultState,
    FaultStats,
    LinkFault,
    LinkOutage,
    TransmissionFate,
    WalCorruption,
)
from .reliable import (
    FailureReason,
    ReliabilityStats,
    ReliableTransport,
    RetryConfig,
)
from .sessions import (
    SESSION_SCENARIOS,
    SessionChaosSimulation,
    SessionReport,
    build_session_chaos,
    select_session_nodes,
)
from .verifier import (
    ChaosReport,
    ChaosSimulation,
    DeferQueue,
    DeliveryLedger,
    EventOutcomeStats,
    OutcomeLedger,
    build_burst_storm_times,
    build_chaos_plan,
    build_chaos_testbed,
    build_resubscribe_storm,
    build_slow_subscriber_plan,
    dispatch,
)

__all__ = [
    "ClusterReport",
    "ClusterStats",
    "FullStackChaosSimulation",
    "PlannedMigration",
    "StandbyWALCorruption",
    "build_cluster_plan",
    "unsharded_match_digest",
    "OverloadChaosSimulation",
    "OverloadReport",
    "BrokerCrash",
    "BrokerKill",
    "WalCorruption",
    "FaultInjector",
    "FaultPlan",
    "FaultState",
    "FaultStats",
    "LinkFault",
    "LinkOutage",
    "TransmissionFate",
    "FailureReason",
    "ReliabilityStats",
    "ReliableTransport",
    "RetryConfig",
    "SESSION_SCENARIOS",
    "SessionChaosSimulation",
    "SessionReport",
    "build_session_chaos",
    "select_session_nodes",
    "ChaosReport",
    "ChaosSimulation",
    "DeferQueue",
    "DeliveryLedger",
    "EventOutcomeStats",
    "OutcomeLedger",
    "dispatch",
    "build_burst_storm_times",
    "build_chaos_plan",
    "build_chaos_testbed",
    "build_resubscribe_storm",
    "build_slow_subscriber_plan",
]
