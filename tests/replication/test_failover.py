"""Failover of one whole broker: the one-shard cluster, end to end.

A cluster of one shard replicates every subscription the broker holds,
so these are the ``shards=1`` cases of the cluster harness
(``tests/cluster/test_chaos_cluster.py``).  Every scenario must land a
takeover and fence the deposed primary's write probe; a partitioned
zombie must also draw stale-epoch rejections, and a lagging standby an
anti-entropy catch-up.
"""

import pytest

from repro.faults import BrokerKill, build_cluster_plan
from repro.replication import ShippingConfig
from repro.sharding import ShardMap
from tests.cluster.test_chaos_cluster import (
    EVENTS,
    _assert_invariants,
    _build,
    _run,
)

#: What `repro chaos --cluster --cluster-scenario catchup` ships with: a
#: buffer the isolated standby overflows.
CATCHUP_SHIPPING = ShippingConfig(batch_ops=8, retain_ops=32, catchup_lag=24)


def _one_shard(scenario, **kwargs):
    """``(simulation, report)`` of a one-shard run whose ledger, digest
    parity and standby scrub already passed the cluster's checks, and
    that landed a takeover fencing the deposed primary's write probe."""
    run = _run(scenario, shards=1, **kwargs)
    _assert_invariants(*run)
    _, _, simulation, report = run
    assert report.cluster.takeovers >= 1
    assert report.cluster.probe_rejections >= 1
    return simulation, report


@pytest.fixture(scope="module")
def kill_run():
    return _one_shard("kill")


class TestKillScenario:
    def test_takeover_happens(self, kill_run):
        _, report = kill_run
        assert report.cluster.takeovers == 1
        assert report.cluster.ring_exclusions == 0
        assert len(report.cluster.takeover_digests) == 1

    def test_outcome_ledger_balances(self, kill_run):
        _, report = kill_run
        s = report.sharded
        assert s.published == EVENTS
        assert (
            s.delivered_events + s.shed_events + s.expired_events == EVENTS
        )
        assert s.accounted

    def test_no_duplicate_deliveries_across_the_takeover(self, kill_run):
        _, report = kill_run
        assert report.duplicate_deliveries == 0

    def test_fencing_probe_fired(self, kill_run):
        _, report = kill_run
        assert report.cluster.probe_rejections == 1
        assert report.cluster.probe_admissions == 1
        assert report.cluster.fenced_writes >= 1

    def test_killed_primary_rejects_writes_forever(self, kill_run):
        simulation, _ = kill_run
        old = simulation.plan.broker_kills[0].node
        shard = simulation.replicated[0]
        assert not shard.write_allowed(old)
        assert shard.write_allowed(shard.primary)

    def test_inflight_rehanded_to_the_new_primary(self, kill_run):
        _, report = kill_run
        assert report.sharded.wiped_inflight > 0
        assert report.cluster.redelivered_after_takeover > 0

    def test_transport_redirects_point_at_the_successor(self, kill_run):
        simulation, _ = kill_run
        old = simulation.plan.broker_kills[0].node
        assert simulation.transport.directory is simulation.directory
        assert (
            simulation.transport.directory.resolve(old)
            == simulation.replicated[0].primary
        )


class TestPartitionScenario:
    def test_zombie_primary_is_fenced_not_resurrected(self):
        _, report = _one_shard("partition")
        # The healed zombie's stale traffic bounced off higher epochs.
        assert report.cluster.stale_rejections >= 1
        assert report.cluster.fenced_writes >= 1


class TestCatchupScenario:
    def test_lagging_standby_takes_over_via_anti_entropy(self):
        _, report = _one_shard("catchup", shipping=CATCHUP_SHIPPING)
        assert report.shipping.catchups >= 1


class TestHarnessContracts:
    def test_double_accounting_is_loud(self, kill_run):
        simulation, _ = kill_run  # every event already has its bucket
        with pytest.raises(RuntimeError, match="accounted twice"):
            simulation.outcomes.finish(0, "shed")

    def test_plan_builder_validates_scenario(self):
        broker, _, _ = _build()
        with pytest.raises(ValueError, match="scenario"):
            build_cluster_plan(
                broker.topology,
                ShardMap.plan(broker.partition, 1),
                scenario="meteor",
            )

    def test_broker_kill_validation(self):
        with pytest.raises(ValueError):
            BrokerKill(node=3, at=-1.0)
        kill = BrokerKill(node=3, at=10.0)
        assert not kill.active(9.999)
        assert kill.active(10.0)
