"""A chaos report and ``repro stats`` read one ledger.

Each harness keeps its own tallies (``ReliabilityStats``,
``ShardedStats``, ``ClusterStats``, ``ShippingStats``, attributes such
as ``RetainedEventLog.appended``) and renders them as report rows; the
telemetry registry that ``repro stats`` and ``--metrics-out`` read
must agree with every row it has a counterpart for.  Each golden
scenario runs once with a live registry and the two are compared row
by row.
"""

import pytest

from repro.cli import _assemble, _build_parser
from repro.telemetry import Telemetry
from tests.faults.test_golden import SCENARIOS

#: Report row → the registry metric that counts it (a labelled family
#: counts as the total over its children).  A row missing here has no
#: counterpart.
COUNTERPARTS = {
    "events": "broker.events",
    "published": "broker.events",
    "retries": "transport.retries",
    "reroutes": "transport.reroutes",
    "acks sent": "transport.acks_sent",
    "duplicates suppressed": "transport.duplicates_suppressed",
    "gave up": "transport.gave_up",
    "nacks received": "transport.nacks_received",
    "short-circuited": "transport.short_circuited",
    "deliveries cancelled on detach": "transport.cancelled",
    "delivered": "transport.delivered",
    "link transmissions": "net.link.transmissions",
    "link retransmissions": "net.link.retransmissions",
    "fenced stale publishes": "sharding.fenced",
    "redelivered by new owner": "sharding.redelivered",
    "migrations completed": "sharding.migrations",
    "takeovers": "cluster.takeovers",
    "ring-exclusion fallbacks": "cluster.ring_exclusions",
    "publishes addressed to deposed primary": "cluster.failover_reroutes",
    "epoch-fenced writes": "cluster.fenced_writes",
    "cluster epoch": "cluster.epoch",
    "shipped batches": "replication.batches",
    "shipped ops": "replication.ops_shipped",
    "shipping acks": "replication.acks",
    "anti-entropy catch-ups": "replication.catchups",
    "shed (events)": "overload.shed",
    "expired (events)": "overload.expired",
    "degraded (group flood)": "broker.degraded_events",
    "late drops (expired at receiver)": "overload.late_drops",
    "replay sends": "sessions.replay_sends",
    "shed but retained": "sessions.shed_retained",
    "lease expirations": "sessions.lease_expired",
    "dead-letter entries": "sessions.deadlettered",
    "retention reclaimed (bytes)": "sessions.retention_truncated_bytes",
}


def _registry_value(metrics, name):
    family = metrics.get(name)
    if family is None:
        return 0
    return sum(child.value for child in family.children.values())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_rows_equal_their_registry_counterparts(name):
    args = _build_parser().parse_args(
        ["chaos", *SCENARIOS[name], "--events", "100",
         "--subscriptions", "150"]
    )
    telemetry = Telemetry(seed=args.seed)
    report = _assemble(args, telemetry).run()
    rows = dict(report.summary_rows())
    compared = {
        label: (rows[label], _registry_value(telemetry.metrics, counterpart))
        for label, counterpart in COUNTERPARTS.items()
        if label in rows
    }
    assert compared, "no report row has a registry counterpart"
    disagree = {
        label: pair
        for label, pair in compared.items()
        if pair[0] != pair[1]
    }
    assert disagree == {}
