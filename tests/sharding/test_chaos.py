"""Sharded chaos: the scale-out guarantees, end to end.

Every scenario must keep the outcome ledger balanced
(``delivered + shed + expired == published``) with zero duplicate
deliveries, route every serviced event to exactly the MatchResult a
single unsharded broker computes (digest-pinned), and explain every
missing delivery by a physically-severed target.
"""

import pytest

from repro.faults import (
    ShardedChaosSimulation,
    build_sharded_plan,
    unsharded_match_digest,
)
from repro.faults.verifier import build_chaos_testbed
from repro.sharding import ShardMap
from repro.workload import PublicationGenerator

EVENTS = 200
SHARDS = 4


def _build(seed=29):
    broker, density = build_chaos_testbed(
        seed=seed, subscriptions=200, num_groups=9
    )
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=seed + 9
    ).generate(EVENTS)
    return broker, points, publishers


def _run(scenario, seed=29, shards=SHARDS, migrations=2):
    broker, points, publishers = _build(seed)
    shard_map = ShardMap.plan(broker.partition, shards)
    plan, homes, planned = build_sharded_plan(
        broker.topology,
        shard_map,
        seed=seed,
        scenario=scenario,
        horizon=float(EVENTS),
        migrations=migrations,
    )
    simulation = ShardedChaosSimulation(
        broker,
        plan,
        num_shards=shards,
        shard_homes=homes,
        migrations=planned,
    )
    report = simulation.run(points, publishers)
    return broker, points, simulation, report


@pytest.fixture(scope="module")
def clean_run():
    return _run("clean")


@pytest.fixture(scope="module")
def kill_run():
    return _run("shard-kill")


@pytest.fixture(scope="module")
def crash_run():
    return _run("migration-crash")


def _assert_invariants(broker, points, simulation, report):
    sharded = report.sharded
    assert sharded.accounted, (
        sharded.delivered_events,
        sharded.shed_events,
        sharded.expired_events,
        sharded.published,
    )
    assert report.duplicate_deliveries == 0
    assert sharded.unexplained_misses == 0
    assert sharded.match_parity
    assert sharded.match_digest == unsharded_match_digest(
        broker, points, simulation.serviced_sequences
    )


class TestCleanScenario:
    def test_invariants(self, clean_run):
        _assert_invariants(*clean_run)

    def test_exactly_once_without_kills(self, clean_run):
        _, _, _, report = clean_run
        assert report.exactly_once
        assert report.sharded.stranded_misses == 0

    def test_live_migrations_completed(self, clean_run):
        _, _, simulation, report = clean_run
        assert report.sharded.migrations_completed == 2
        assert report.final_epoch == 2
        assert simulation.rebalancer.aborted == 0

    def test_every_shard_served_traffic(self, clean_run):
        _, _, _, report = clean_run
        assert set(report.routed_per_shard) == set(range(SHARDS))
        assert sum(report.routed_per_shard.values()) >= EVENTS

    def test_deterministic_across_identical_runs(self, clean_run):
        _, _, _, first = clean_run
        _, _, _, second = _run("clean")
        assert first.sharded.match_digest == second.sharded.match_digest
        assert first.sharded == second.sharded
        assert first.routed_per_shard == second.routed_per_shard


class TestShardKillScenario:
    def test_invariants(self, kill_run):
        _assert_invariants(*kill_run)

    def test_kill_triggers_rebalance(self, kill_run):
        _, _, simulation, report = kill_run
        sharded = report.sharded
        assert sharded.shard_kills >= 1
        assert sharded.rebalances >= 1
        # Every subset the dead shards owned now lives on a survivor.
        for dead in simulation._dead:
            assert simulation.map.subsets_of(dead) == []

    def test_inflight_rehand_happened(self, kill_run):
        _, _, _, report = kill_run
        assert report.sharded.wiped_inflight > 0
        assert report.sharded.redelivered > 0

    def test_survivors_inherit_traffic(self, kill_run):
        _, _, simulation, report = kill_run
        live = set(range(SHARDS)) - simulation._dead
        assert live
        assert all(report.routed_per_shard[s] > 0 for s in live)


class TestMigrationCrashScenario:
    def test_invariants(self, crash_run):
        _assert_invariants(*crash_run)

    def test_crash_mid_copy_resolves_the_migration(self, crash_run):
        _, _, simulation, report = crash_run
        sharded = report.sharded
        assert sharded.shard_kills >= 1
        # The journaled protocol resolved the interrupted migration —
        # rolled forward onto the surviving destination (or aborted if
        # the destination died too), never left in limbo.
        assert sharded.migrations_completed + sharded.migrations_aborted >= 1
        assert not simulation.rebalancer._active

    def test_epoch_advanced(self, crash_run):
        _, _, _, report = crash_run
        assert report.final_epoch >= 1


class TestHarnessGuards:
    def test_double_accounting_raises(self):
        broker, points, publishers = _build()
        shard_map = ShardMap.plan(broker.partition, SHARDS)
        plan, homes, _ = build_sharded_plan(
            broker.topology, shard_map, scenario="clean", horizon=100.0
        )
        simulation = ShardedChaosSimulation(
            broker, plan, num_shards=SHARDS, shard_homes=homes
        )
        simulation.outcomes.finish(0, "delivered")
        with pytest.raises(RuntimeError, match="accounted twice"):
            simulation.outcomes.finish(0, "shed")

    def test_too_many_shards_for_topology_raises(self):
        broker, _, _ = _build()
        plan, _, _ = build_sharded_plan(
            broker.topology,
            ShardMap.plan(broker.partition, 2),
            scenario="clean",
        )
        with pytest.raises(ValueError, match="transit nodes"):
            ShardedChaosSimulation(broker, plan, num_shards=999)

    def test_scenario_validated(self):
        broker, _, _ = _build()
        with pytest.raises(ValueError, match="scenario must be"):
            build_sharded_plan(
                broker.topology,
                ShardMap.plan(broker.partition, 2),
                scenario="nope",
            )

    def test_single_shard_degenerates_to_unsharded(self):
        broker, points, simulation, report = (None, None, None, None)
        broker, points, publishers = _build()
        shard_map = ShardMap.plan(broker.partition, 1)
        plan, homes, planned = build_sharded_plan(
            broker.topology,
            shard_map,
            scenario="clean",
            horizon=float(EVENTS),
        )
        simulation = ShardedChaosSimulation(
            broker, plan, num_shards=1, shard_homes=homes, migrations=planned
        )
        report = simulation.run(points, publishers)
        assert planned == []  # nowhere to migrate with one shard
        assert report.sharded.accounted
        assert report.sharded.match_parity
        assert report.routed_per_shard == {0: EVENTS}
