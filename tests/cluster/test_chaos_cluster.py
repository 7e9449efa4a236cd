"""Full-stack chaos: replicated shards under combined failures.

Every scenario must keep the outcome ledger balanced with zero
duplicates and zero *unexplained* misses, keep per-event MatchResult
digests byte-identical to an unsharded never-failed broker, and answer
the scenario's shard death with a fenced standby takeover rather than
the last-resort ring exclusion.
"""

import pytest

from repro.faults import (
    FullStackChaosSimulation,
    build_cluster_plan,
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


def _run(
    scenario, seed=29, shards=SHARDS, shipping=None, standbys=2, telemetry=None
):
    broker, points, publishers = _build(seed)
    shard_map = ShardMap.plan(broker.partition, shards)
    plan, homes, standby_map, planned, corruptions = build_cluster_plan(
        broker.topology,
        shard_map,
        seed=seed,
        scenario=scenario,
        horizon=float(EVENTS),
        standby_count=standbys,
    )
    simulation = FullStackChaosSimulation(
        broker,
        plan,
        standby_map,
        num_shards=shards,
        shard_homes=homes,
        migrations=planned,
        corruptions=corruptions,
        shipping=shipping,
        telemetry=telemetry,
    )
    report = simulation.run(points, publishers)
    return broker, points, simulation, report


@pytest.fixture(scope="module")
def kill_run():
    return _run("kill")


@pytest.fixture(scope="module")
def partition_run():
    return _run("partition")


@pytest.fixture(scope="module")
def double_kill_run():
    return _run("double-kill")


@pytest.fixture(scope="module")
def migrate_run():
    return _run("migrate-under-kill")


def _assert_invariants(broker, points, simulation, report):
    """The guarantees of every cluster run, with or without standbys."""
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
    # The corruption leg ran wherever there was a standby to tear: it
    # scrubbed its torn WAL and rebased instead of dying or diverging.
    torn = int(any(shard.ranked for shard in simulation.replicated.values()))
    assert report.cluster.wal_corruptions == report.cluster.wal_scrubs == torn


class TestKillScenario:
    def test_invariants(self, kill_run):
        _assert_invariants(*kill_run)

    def test_takeover_not_ring_exclusion(self, kill_run):
        _, _, _, report = kill_run
        assert report.cluster.takeovers == 1
        assert report.cluster.ring_exclusions == 0
        assert report.sharded.shard_kills == 0  # nothing stranded
        assert len(report.cluster.takeover_digests) == 1
        assert len(report.cluster.takeover_durations) == 1

    def test_split_brain_probe(self, kill_run):
        _, _, _, report = kill_run
        assert report.cluster.probe_admissions >= 1
        assert report.cluster.probe_rejections >= 1

    def test_inflight_rehand_after_takeover(self, kill_run):
        _, _, _, report = kill_run
        assert report.cluster.redelivered_after_takeover > 0

    def test_membership_confirmed_the_death(self, kill_run):
        _, _, simulation, report = kill_run
        assert report.cluster.confirmed_deaths >= 1
        assert report.cluster.members_dead >= 1
        assert report.cluster.cluster_epoch >= 3
        # The takeover waited out the full hysteresis: silence must
        # exceed confirm_after before the verdict lands.
        assert min(report.cluster.takeover_durations) > (
            simulation.membership.config.confirm_after
        )

    def test_deterministic_across_identical_runs(self, kill_run):
        _, _, _, first = kill_run
        _, _, _, second = _run("kill")
        assert first.sharded.match_digest == second.sharded.match_digest
        assert first.sharded == second.sharded
        assert first.cluster == second.cluster


class TestPartitionScenario:
    def test_invariants(self, partition_run):
        _assert_invariants(*partition_run)

    def test_zombie_is_fenced_not_killed(self, partition_run):
        _, _, _, report = partition_run
        assert report.cluster.takeovers >= 1
        # The old primary kept running behind the partition: its stale
        # traffic bounced off the higher epoch after the heal.
        assert report.cluster.stale_rejections >= 1
        assert report.cluster.stale_heartbeats >= 1

    def test_no_stranding_under_partition(self, partition_run):
        _, _, _, report = partition_run
        assert report.sharded.stranded_misses == 0


class TestPartitionWithoutStandby:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_the_waited_for_home_serves_again(self, shards):
        """Nobody can succeed a partitioned home without standbys, so
        the shard waits for it.  Its deferred events used to sit in the
        queue after the heal until they expired, and at K = 4 the view,
        which had confirmed it dead, kept it dead while it served."""
        broker, points, simulation, report = _run(
            "partition", shards=shards, standbys=0
        )
        _assert_invariants(broker, points, simulation, report)
        assert report.sharded.deferred_events > 0
        assert report.sharded.expired_events == 0
        assert report.exactly_once
        assert report.cluster.takeovers == report.cluster.ring_exclusions == 0
        assert set(simulation.homes.values()) <= simulation.membership.view().alive
        assert report.cluster.stale_heartbeats == 0


class TestDoubleKillScenario:
    def test_invariants(self, double_kill_run):
        _assert_invariants(*double_kill_run)

    def test_two_independent_takeovers(self, double_kill_run):
        _, _, _, report = double_kill_run
        assert report.cluster.takeovers == 2
        assert report.cluster.ring_exclusions == 0
        assert len(set(report.cluster.takeover_digests)) == 2


class TestMigrateUnderKillScenario:
    def test_invariants(self, migrate_run):
        _assert_invariants(*migrate_run)

    def test_migration_resolves_and_shard_fails_over(self, migrate_run):
        _, _, simulation, report = migrate_run
        assert report.cluster.takeovers >= 1
        assert (
            report.sharded.migrations_completed
            + report.sharded.migrations_aborted
            >= 1
        )
        assert not simulation.rebalancer._active


class TestHarnessGuards:
    def test_scenario_validated(self):
        broker, _, _ = _build()
        with pytest.raises(ValueError, match="scenario must be"):
            build_cluster_plan(
                broker.topology,
                ShardMap.plan(broker.partition, 2),
                scenario="nope",
            )

    def test_standby_count_validated(self):
        broker, _, _ = _build()
        with pytest.raises(
            ValueError, match=r"standby_count must be >= 0 \(got -1\)"
        ):
            build_cluster_plan(
                broker.topology,
                ShardMap.plan(broker.partition, 2),
                standby_count=-1,
            )

    def test_catchup_needs_a_standby_to_isolate(self):
        broker, _, _ = _build()
        with pytest.raises(ValueError, match="catchup needs at least one"):
            build_cluster_plan(
                broker.topology,
                ShardMap.plan(broker.partition, 1),
                scenario="catchup",
                standby_count=0,
            )

    def test_a_killed_home_without_standbys_is_excluded(self):
        """Zero standbys are allowed; a *killed* home then leaves only
        the last resort, ring exclusion, and the ledger still closes."""
        broker, points, simulation, report = _run("kill", standbys=0)
        assert all(not s.ranked for s in simulation.replicated.values())
        assert report.cluster.takeovers == 0
        assert report.cluster.ring_exclusions == 1
        assert report.sharded.accounted
        assert report.duplicate_deliveries == 0
        assert report.sharded.match_parity


class TestRecoveryMeters:
    def test_a_takeover_replay_is_counted_as_a_recovery(self, monkeypatch):
        """``stats --cluster`` used to read ``recoveries 0`` next to
        ``shard takeovers 1``: the shard replay fed counters the
        durability section never read."""
        import repro.cluster.shard
        from repro.telemetry import Telemetry

        replays = []
        recover_shard = repro.cluster.shard.recover_shard

        def counted(*args, **kwargs):
            replays.append(recover_shard(*args, **kwargs))
            return replays[-1]

        monkeypatch.setattr(repro.cluster.shard, "recover_shard", counted)
        # Seed 2003: the promoted standby's log holds records to replay.
        telemetry = Telemetry(seed=2003)
        _, _, _, report = _run(
            "kill", seed=2003, shards=1, telemetry=telemetry
        )
        metrics = telemetry.metrics
        assert report.cluster.takeovers == len(replays) == 1
        assert metrics.value("recovery.runs") == report.cluster.takeovers
        assert metrics.value("recovery.replayed") == sum(
            state.replayed for state in replays
        ) > 0
