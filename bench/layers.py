"""Where the timing wrappers go, and which metric each span feeds.

Layers are ``src/repro`` package names.  A span is named
``<layer>.<what>``; the layer prefix alone decides whose ``_share`` its
self time counts towards.  Only public entry points are wrapped, so the
time of a private helper belongs to the nearest wrapped caller.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .tracing import FIRST_REP, PatchPoint, TraceSummary

PATCH_POINTS: List[PatchPoint] = [
    # spatial
    ("repro.spatial.base", "PointMatcher", "match", "spatial.match"),
    ("repro.spatial.base", "PointMatcher", "build", "spatial.build"),
    # core
    ("repro.core.matching", "MatchingEngine", "match", "core.engine_match"),
    ("repro.core.dynamic", "DynamicMatchingEngine", "match", "core.engine_match"),
    ("repro.core.distribution", "ThresholdPolicy", "decide", "core.decide"),
    ("repro.core.broker", "PubSubBroker", "publish", "core.publish"),
    ("repro.core.broker", "PubSubBroker", "preprocess", "core.preprocess"),
    ("repro.core.broker", "PubSubBroker", "durable_state", "core.durable_state"),
    ("repro.core.dynamic", "DynamicPubSubBroker", "subscribe", "core.subscribe"),
    ("repro.core.dynamic", "DynamicPubSubBroker", "unsubscribe", "core.unsubscribe"),
    # clustering
    ("repro.clustering.grid", "EventGrid", "__init__", "clustering.grid_build"),
    ("repro.clustering.kmeans", "ForgyKMeansClustering", "cluster", "clustering.cluster"),
    ("repro.clustering.groups", "SpacePartition", "__init__", "clustering.partition_build"),
    ("repro.clustering.groups", "SpacePartition", "restore", "clustering.partition_restore"),
    ("repro.clustering.groups", "SpacePartition", "locate", "clustering.locate"),
    ("repro.clustering.groups", "SpacePartition", "add_subscription", "clustering.add_subscription"),
    # network
    ("repro.network.topology", "TransitStubGenerator", "generate", "network.topology_build"),
    ("repro.network.multicast", "DeliveryCostModel", "__init__", "network.model_build"),
    ("repro.network.multicast", "DeliveryCostModel", "unicast_cost", "network.unicast_cost"),
    ("repro.network.multicast", "DeliveryCostModel", "ideal_cost", "network.ideal_cost"),
    ("repro.network.multicast", "DeliveryCostModel", "multicast_cost", "network.multicast_cost"),
    ("repro.network.multicast", "DeliveryCostModel", "degraded_unicast_cost", "network.degraded_cost"),
    ("repro.network.multicast", "DeliveryCostModel", "degraded_multicast_cost", "network.degraded_cost"),
    ("repro.network.multicast", "DeliveryCostModel", "clear_cache", "network.clear_cache"),
    # workload
    ("repro.workload.subscriptions", "StockSubscriptionGenerator", "generate", "workload.subscriptions"),
    ("repro.workload.publications", "PublicationGenerator", "generate", "workload.publications"),
    # durability
    ("repro.durability.wal", "WriteAheadLog", "append", "durability.wal_append"),
    ("repro.durability.wal", "WriteAheadLog", "truncate_prefix", "durability.wal_truncate"),
    ("repro.durability.journal", "BrokerJournal", "log_publish", "durability.log_publish"),
    ("repro.durability.journal", "BrokerJournal", "log_delivery", "durability.log_delivery"),
    ("repro.durability.journal", "BrokerJournal", "log_subscribe", "durability.log_churn"),
    ("repro.durability.journal", "BrokerJournal", "log_unsubscribe", "durability.log_churn"),
    ("repro.durability.journal", "BrokerJournal", "checkpoint", "durability.checkpoint"),
    ("repro.durability.snapshot", "Snapshot", "digest", "durability.snapshot_digest"),
    ("repro.durability", None, "recover", "durability.recover"),
    ("repro.durability", None, "restore_broker", "durability.restore"),
    # replication
    ("repro.replication.shipping", "LogShipper", "record", "replication.record"),
    ("repro.replication.shipping", "LogShipper", "checkpoint", "replication.checkpoint"),
    ("repro.replication.shipping", "LogShipper", "flush", "replication.flush"),
    ("repro.replication.shipping", "LogShipper", "ack", "replication.ack"),
    ("repro.replication.shipping", "StandbyReplica", "receive", "replication.receive"),
    ("repro.replication.shipping", "StandbyReplica", "receive_catchup", "replication.receive_catchup"),
    # cluster
    ("repro.cluster.journal", "ShardJournal", "log_register", "cluster.journal_append"),
    ("repro.cluster.journal", "ShardJournal", "log_publish", "cluster.journal_append"),
    ("repro.cluster.journal", "ShardJournal", "log_delivery", "cluster.journal_append"),
    ("repro.cluster.journal", "ShardJournal", "checkpoint", "cluster.journal_checkpoint"),
    ("repro.cluster.shard", None, "recover_shard", "cluster.recover_shard"),
    ("repro.cluster.shard", "ReplicatedShard", "deliver", "cluster.shard_deliver"),
    ("repro.cluster.shard", "ReplicatedShard", "tick", "cluster.tick"),
    ("repro.cluster.shard", "ReplicatedShard", "takeover", "cluster.takeover"),
    ("repro.cluster.membership", "Membership", "heard", "cluster.membership"),
    ("repro.cluster.membership", "Membership", "tick", "cluster.membership"),
    # sharding
    ("repro.sharding.map", "ShardMap", "plan", "sharding.plan"),
    ("repro.sharding.router", "ShardRouter", "__init__", "sharding.router_build"),
    ("repro.sharding.router", "ShardRouter", "resolve", "sharding.resolve"),
    ("repro.sharding.router", "ShardRouter", "route", "sharding.route"),
    # sessions
    ("repro.sessions.session", "SessionManager", "on_publish", "sessions.on_publish"),
    ("repro.sessions.session", "SessionManager", "ack", "sessions.ack"),
    ("repro.sessions.session", "SessionManager", "expire_leases", "sessions.expire_leases"),
    ("repro.sessions.log", "RetainedEventLog", "append", "sessions.log_append"),
    ("repro.sessions.log", "RetainedEventLog", "read", "sessions.log_read"),
    ("repro.sessions.log", "RetainedEventLog", "enforce_retention", "sessions.retention"),
    ("repro.sessions.replay", "CatchupReplayer", "start", "sessions.replay_start"),
    # faults
    ("repro.faults.reliable", "ReliableTransport", "publish", "faults.transport_send"),
    ("repro.faults.reliable", "ReliableTransport", "data_arrived", "faults.transport_receive"),
    ("repro.faults.plan", "FaultInjector", "filter_transmission", "faults.filter_transmission"),
    ("repro.faults.verifier", "ChaosSimulation", "run", "faults.harness_run"),
    ("repro.faults.sharded", "ShardedChaosSimulation", "run", "faults.harness_run"),
    ("repro.faults.cluster", "FullStackChaosSimulation", "run", "faults.harness_run"),
    ("repro.faults.sessions", "SessionChaosSimulation", "run", "faults.harness_run"),
    # simulation
    ("repro.simulation.engine", "DiscreteEventSimulator", "run", "simulation.engine"),
    ("repro.simulation.packet_network", "PacketNetwork", "send_unicast", "simulation.send_unicast"),
    ("repro.simulation.packet_network", "PacketNetwork", "send_along", "simulation.send_along"),
    ("repro.simulation.packet_network", "PacketNetwork", "send_multicast", "simulation.send_multicast"),
]

#: Callbacks handed to these run later, from the engine's loop; each is
#: wrapped when scheduled and attributed to the package defining it.
SCHEDULER = (
    "repro.simulation.engine",
    "DiscreteEventSimulator",
    ("schedule", "schedule_at"),
)

#: Layers that get a ``<layer>.share`` (names as in BENCHMARK.json).
SHARE_METRICS: Dict[str, str] = {
    "spatial": "spatial.match_share",
    "clustering": "clustering.locate_share",
    "network": "network.cost_share",
    "core": "core.share",
    "durability": "durability.share",
    "replication": "replication.share",
    "cluster": "cluster.share",
    "sharding": "sharding.share",
    "sessions": "sessions.share",
    "faults": "faults.share",
    "simulation": "simulation.engine_self_share",
}

#: metric -> span names; mean *self* microseconds per call, timed phase.
MEAN_SELF_US: Dict[str, Tuple[str, ...]] = {
    "spatial.match_us": ("spatial.match",),
    "core.engine_match_us": ("core.engine_match",),
    "core.decide_us": ("core.decide",),
    "core.publish_self_us": ("core.publish",),
    "core.subscribe_us": ("core.subscribe",),
    "core.unsubscribe_us": ("core.unsubscribe",),
    "clustering.locate_us": ("clustering.locate",),
    "clustering.add_subscription_us": ("clustering.add_subscription",),
    "network.unicast_cost_us": ("network.unicast_cost",),
    "network.ideal_cost_us": ("network.ideal_cost",),
    "network.multicast_cost_us": ("network.multicast_cost",),
    "durability.wal_append_us": ("durability.wal_append",),
    "durability.log_publish_us": ("durability.log_publish",),
    "durability.log_delivery_us": ("durability.log_delivery",),
    "replication.flush_us": ("replication.flush",),
    "replication.receive_us": ("replication.receive",),
    "cluster.journal_append_us": ("cluster.journal_append",),
    "cluster.shard_deliver_us": ("cluster.shard_deliver",),
    "sharding.resolve_us": ("sharding.resolve",),
    "sharding.route_us": ("sharding.route",),
    "sessions.on_publish_us": ("sessions.on_publish",),
    "sessions.ack_us": ("sessions.ack",),
    "sessions.log_append_us": ("sessions.log_append",),
    "sessions.log_read_us": ("sessions.log_read",),
    "faults.transport_send_us": ("faults.transport_send",),
    "simulation.send_unicast_us": ("simulation.send_unicast",),
    "simulation.send_along_us": ("simulation.send_along",),
}

#: metric -> span names; mean *inclusive* milliseconds per call.
MEAN_TOTAL_MS: Dict[str, Tuple[str, ...]] = {
    "durability.checkpoint_ms": ("durability.checkpoint",),
    "replication.receive_catchup_ms": ("replication.receive_catchup",),
    "cluster.tick_ms": ("cluster.tick",),
    "cluster.takeover_ms": ("cluster.takeover",),
}

#: metric -> span names; summed inclusive milliseconds, timed phase.
SUM_TOTAL_MS: Dict[str, Tuple[str, ...]] = {
    "durability.snapshot_digest_ms_total": ("durability.snapshot_digest",),
    "sessions.retention_ms_total": ("sessions.retention",),
}

#: metric -> span names; number of calls in the first traced rep.
CALLS: Dict[str, Tuple[str, ...]] = {
    "durability.snapshot_digest_calls": ("durability.snapshot_digest",),
    "replication.flush_calls": ("replication.flush",),
    "network.cache_clears": ("network.clear_cache",),
}

#: metric -> span names; summed inclusive seconds of the *set-up* phase.
SETUP_S: Dict[str, Tuple[str, ...]] = {
    "spatial.build_s": ("spatial.build",),
    "clustering.preprocess_s": (
        "clustering.grid_build",
        "clustering.cluster",
        "clustering.partition_build",
    ),
    "network.model_build_s": (
        "network.topology_build",
        "network.model_build",
    ),
    "workload.generate_s": (
        "workload.subscriptions",
        "workload.publications",
    ),
    "sharding.plan_s": ("sharding.plan", "sharding.router_build"),
}


#: Read from the objects' public stats after the first traced rep, whose
#: inputs depend on the seed alone: these repeat exactly for a seed, and
#: ``compare.py`` flags any difference at all.  A workload that does not
#: exercise the layer leaves them at 0.
EXACT_OBJECT_METRICS: Tuple[str, ...] = (
    "spatial.nodes_visited_per_query",
    "spatial.entries_tested_per_query",
    "spatial.results_per_query",
    "core.rebuilds",
    "core.unicast_share_of_events",
    "core.multicast_share_of_events",
    "core.not_sent_share_of_events",
    "core.cost_improvement_pct",
    "durability.checkpoints",
    "durability.wal_retained_bytes",
    "durability.replayed_records",
    "replication.catchups",
    "replication.batches",
    "replication.ops_shipped",
    "replication.acks",
    "replication.backpressure_skips",
    "cluster.takeovers",
    "sharding.imbalance",
    "sessions.replay_sends",
    "sessions.dlq_entries",
    "sessions.retained_events",
    "faults.sends",
    "faults.retries",
    "faults.acks",
    "faults.gave_up",
    "faults.duplicates_suppressed",
    "faults.delivered_share",
    "simulation.transmissions",
    "simulation.callbacks",
    "simulation.delivery_p95",
)

#: From the untraced reps' own timers and from side measurements.
TIMED_OBJECT_METRICS: Tuple[str, ...] = (
    "spatial.linear_match_us",
    "spatial.stree_vs_linear",
    "spatial.index_pickle_bytes",
    "core.publish_p50_us",
    "core.publish_p95_us",
    "core.publish_p99_us",
    "core.publish_p999_us",
    "core.churn_ops_per_s",
    "durability.journal_rec_per_s",
    "durability.steady_rec_per_s",
    "durability.pinned_rec_per_s",
    "durability.recover_ms",
    "durability.restore_ms",
    "telemetry.enabled_overhead_pct",
    "trace.overhead_pct",
)

OBJECT_METRICS = EXACT_OBJECT_METRICS + TIMED_OBJECT_METRICS

#: Everything ``compare.py`` expects to be identical for one seed.
EXACT_METRICS = EXACT_OBJECT_METRICS + tuple(CALLS)


def span_metrics(summary: TraceSummary) -> Dict[str, float]:
    """Every metric that is a function of the spans alone.

    Layers a workload never enters read 0.  ``trace.residual_share`` is
    the self time of the benchmark's own root spans plus that of spans
    whose layer has no ``_share`` of its own (``workload``), so the
    shares and the residual add up to 1.
    """
    out: Dict[str, float] = {}
    for metric, names in MEAN_SELF_US.items():
        calls = summary.calls("timed", *names)
        out[metric] = (
            summary.self_ns("timed", *names) / calls / 1e3 if calls else 0.0
        )
    for metric, names in MEAN_TOTAL_MS.items():
        calls = summary.calls("timed", *names)
        out[metric] = (
            summary.total_ns("timed", *names) / calls / 1e6 if calls else 0.0
        )
    for metric, names in SUM_TOTAL_MS.items():
        out[metric] = summary.total_ns("timed", *names) / 1e6
    for metric, names in CALLS.items():
        out[metric] = float(summary.calls(FIRST_REP, *names))
    for metric, names in SETUP_S.items():
        out[metric] = summary.total_ns("setup", *names) / 1e9
    # A rebuild under churn is an index build inside the timed phase.
    out["core.rebuild_s_total"] = (
        summary.total_ns("timed", "spatial.build") / 1e9
    )
    wall = summary.wall_ns("timed")
    attributed = 0.0
    for layer, metric in SHARE_METRICS.items():
        share = summary.layer_self_ns("timed", layer) / wall if wall else 0.0
        out[metric] = share
        attributed += share
    out["trace.residual_share"] = 1.0 - attributed if wall else 0.0
    return out
