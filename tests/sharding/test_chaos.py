"""Sharded chaos: the scale-out guarantees, end to end.

The sharded harness is the zero-standby cluster: every shard home is a
lone primary, so a killed one is ring-excluded once the membership view
confirms it dead and the survivors rebalance its subsets.  Every
scenario must keep the outcome ledger balanced
(``delivered + shed + expired == published``) with zero duplicate
deliveries, route every serviced event to exactly the MatchResult a
single unsharded broker computes (digest-pinned), and explain every
missing delivery by a physically-severed target.
"""

import pytest

from repro.faults import FullStackChaosSimulation, build_cluster_plan
from repro.sharding import ShardMap
from tests.cluster.test_chaos_cluster import (
    EVENTS,
    SHARDS,
    _assert_invariants,
    _build,
)
from tests.cluster.test_chaos_cluster import _run as _run_cluster


def _run(scenario, shards=SHARDS):
    return _run_cluster(scenario, shards=shards, standbys=0)


@pytest.fixture(scope="module")
def clean_run():
    return _run("migrate")


@pytest.fixture(scope="module")
def kill_run():
    return _run("kill")


@pytest.fixture(scope="module")
def crash_run():
    return _run("migrate-under-kill")


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
        _, _, _, second = _run("migrate")
        assert first.sharded.match_digest == second.sharded.match_digest
        assert first.sharded == second.sharded
        assert first.cluster == second.cluster
        assert first.routed_per_shard == second.routed_per_shard


class TestShardKillScenario:
    def test_invariants(self, kill_run):
        _assert_invariants(*kill_run)

    def test_kill_triggers_rebalance(self, kill_run):
        _, _, simulation, report = kill_run
        sharded = report.sharded
        assert sharded.shard_kills >= 1
        assert sharded.rebalances >= 1
        # The view confirmed the death; nobody could take over.
        assert report.cluster.confirmed_deaths >= 1
        assert report.cluster.ring_exclusions == 1
        assert report.cluster.takeovers == 0
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
        broker, _, _ = _build()
        plan, homes, standby_map, _, _ = build_cluster_plan(
            broker.topology,
            ShardMap.plan(broker.partition, SHARDS),
            scenario="migrate",
            standby_count=0,
        )
        simulation = FullStackChaosSimulation(
            broker, plan, standby_map, num_shards=SHARDS, shard_homes=homes
        )
        simulation.outcomes.finish(0, "delivered")
        with pytest.raises(RuntimeError, match="accounted twice"):
            simulation.outcomes.finish(0, "shed")

    def test_too_many_shards_for_topology_raises(self):
        broker, _, _ = _build()
        with pytest.raises(ValueError, match="transit nodes"):
            build_cluster_plan(
                broker.topology,
                ShardMap.plan(broker.partition, 999),
                standby_count=0,
            )

    def test_scenario_validated(self):
        broker, _, _ = _build()
        with pytest.raises(ValueError, match="scenario must be"):
            build_cluster_plan(
                broker.topology,
                ShardMap.plan(broker.partition, 2),
                scenario="nope",
                standby_count=0,
            )

    def test_single_shard_degenerates_to_unsharded(self):
        _, _, simulation, report = _run("migrate", shards=1)
        assert simulation.planned == ()  # nowhere to migrate with one shard
        assert report.sharded.accounted
        assert report.sharded.match_parity
        assert report.routed_per_shard == {0: EVENTS}
