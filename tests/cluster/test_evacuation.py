"""Two cluster paths no chaos golden drives: a shard stranded by a kill,
and a planned migration aborted mid-copy.

A kill can cut a *live* shard's home off from the rest of the cluster
without killing it.  Its subscribers are then reachable from no live
home, so the harness must evacuate the shard (count it stranded and
rebalance it away); otherwise the cut-off region's misses read as
unexplained and the cluster verdict fails.  This holds whether the kill
takes a shard home or only the transit nodes around one.
"""

import dataclasses

import networkx as nx
import pytest

from repro.core.distribution import ThresholdPolicy
from repro.faults import (
    BrokerKill,
    FullStackChaosSimulation,
    build_cluster_plan,
    unsharded_match_digest,
)
from repro.faults.verifier import build_chaos_testbed
from repro.sharding import ShardMap
from repro.workload import PublicationGenerator

EVENTS = 100


def _deployment(shards):
    broker, density = build_chaos_testbed(
        seed=2003, subscriptions=150, num_groups=11
    )
    broker = broker.with_policy(ThresholdPolicy(0.15))
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=2012
    ).generate(EVENTS)
    shard_map = ShardMap.plan(broker.partition, shards)
    return broker, points, publishers, shard_map


def _run(broker, points, publishers, plan, homes, standby_map, planned):
    simulation = FullStackChaosSimulation(
        broker,
        plan,
        standby_map,
        num_shards=len(homes),
        shard_homes=homes,
        migrations=planned,
    )
    report = simulation.run(points, publishers)
    reference = unsharded_match_digest(
        broker, points, simulation.serviced_sequences
    )
    return report, reference


#: ``(node, at)`` kills.  Nodes 5 and 6 are transit nodes that host no
#: shard home; node 1 is shard 1's home.  Each set leaves home 4 cut
#: off from the other homes.
STRANDING_KILLS = {
    "two-transit-nodes": ((5, 120.0), (6, 120.0)),
    "home-then-transit": ((1, 120.0), (5, 60.0)),
    "home-and-transit-together": ((1, 120.0), (5, 120.0)),
    "transit-then-home": ((1, 120.0), (5, 160.0)),
}


@pytest.mark.parametrize("kills", STRANDING_KILLS.values(), ids=STRANDING_KILLS)
def test_a_home_a_kill_cuts_off_is_evacuated(kills):
    broker, points, publishers, shard_map = _deployment(shards=5)
    plan, homes, standby_map, planned, _ = build_cluster_plan(
        broker.topology,
        shard_map,
        seed=2003,
        loss=0.1,
        scenario="migrate",
        horizon=300.0,
        standby_count=0,
        migrations=0,
    )
    # The precondition: without the killed nodes, home 4 reaches no
    # other home (a topology change must not make this test vacuous).
    graph = broker.topology.graph.copy()
    graph.remove_nodes_from(node for node, _at in kills)
    others = [h for h in homes if h != 4 and h in graph]
    assert 4 in homes and others
    assert not any(nx.has_path(graph, 4, h) for h in others)

    plan = dataclasses.replace(
        plan,
        broker_kills=tuple(BrokerKill(node=n, at=at) for n, at in kills),
    )
    report, reference = _run(
        broker, points, publishers, plan, homes, standby_map, planned
    )
    sharded = report.sharded
    assert sharded.unexplained_misses == 0
    assert sharded.stranded_shards == 1
    assert sharded.accounted
    assert sharded.match_parity
    assert sharded.match_digest == reference
    assert report.duplicate_deliveries == 0


def test_a_destination_killed_mid_copy_aborts_the_migration():
    broker, points, publishers, shard_map = _deployment(shards=4)
    plan, homes, standby_map, planned, _ = build_cluster_plan(
        broker.topology,
        shard_map,
        seed=2003,
        loss=0.1,
        scenario="migrate",
        horizon=300.0,
        standby_count=0,
        migrations=1,
    )
    # A long copy: at the default 20 units the destination is
    # confirmed dead only after the cutover, and nothing aborts.
    (migration,) = planned
    migration = dataclasses.replace(migration, copy_time=150.0)
    plan = dataclasses.replace(
        plan,
        broker_kills=(
            BrokerKill(node=homes[migration.dest], at=migration.at + 5.0),
        ),
    )
    report, reference = _run(
        broker, points, publishers, plan, homes, standby_map, [migration]
    )
    sharded = report.sharded
    assert sharded.migrations_aborted == 1
    assert sharded.accounted
    assert report.duplicate_deliveries == 0
    assert sharded.unexplained_misses == 0
    assert sharded.match_parity
    assert sharded.match_digest == reference
