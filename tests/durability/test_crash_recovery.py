"""End-to-end crash recovery: a crashed home restarts from its own WAL.

The one-shard cluster with zero standbys is the whole broker with
nothing but its own storage: every crash window wipes its volatile
state and the restart at the window's end replays its WAL (exactly-once
across restarts, determinism, a damaged log cut back to its valid
prefix).
"""

from __future__ import annotations

import pytest

from repro.core import ThresholdPolicy
from repro.core.event import Event
from repro.durability import MemoryWAL
from repro.faults import (
    FullStackChaosSimulation,
    WalCorruption,
    build_cluster_plan,
)
from repro.faults.verifier import build_chaos_testbed
from repro.sharding import ShardMap
from repro.workload import PublicationGenerator

EVENTS = 120
SUBSCRIPTIONS = 100


def make_plan(broker, seed=2003, corrupt=None, crashes=2, crash_length=25.0):
    return build_cluster_plan(
        broker.topology,
        ShardMap.plan(broker.partition, 1),
        seed=seed,
        loss=0.05,
        scenario="restart",
        horizon=float(EVENTS),
        standby_count=0,
        crashes=crashes,
        crash_length=crash_length,
        corrupt=corrupt,
    )


def make_run(seed=2003, corrupt=None, crashes=2, crash_length=25.0, **kwargs):
    broker, density = build_chaos_testbed(
        seed=seed, subscriptions=SUBSCRIPTIONS, num_groups=7
    )
    broker.policy = ThresholdPolicy(0.15)
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=seed + 9
    ).generate(EVENTS)
    plan, homes, standby_map, _, corruptions = make_plan(
        broker, seed, corrupt, crashes, crash_length
    )
    simulation = FullStackChaosSimulation(
        broker,
        plan,
        standby_map,
        num_shards=1,
        shard_homes=homes,
        corruptions=corruptions,
        checkpoint_every=32,
        **kwargs,
    )
    return simulation, points, publishers


def home_storage(simulation):
    """The one shard's home: its WAL and snapshot store."""
    shard = simulation.replicated[0]
    return shard.wals[shard.primary], shard.stores[shard.primary]


class TestCleanRuns:
    def test_exactly_once_across_restarts(self):
        simulation, points, publishers = make_run()
        report = simulation.run(points, publishers)
        cluster = report.cluster
        assert report.exactly_once
        assert cluster.restarts == cluster.home_crashes == 2
        assert len(simulation.plan.crashes) == 2
        assert cluster.takeovers == cluster.ring_exclusions == 0
        wal, store = home_storage(simulation)
        assert wal.appends > 0
        assert len(store.ids()) >= 2  # the bootstrap and a checkpoint
        assert cluster.restart_truncated == 0
        assert cluster.home_wal_corruptions == 0
        # What the WAL said was in flight is exactly what the crash
        # wiped from the transport: the harness's ground truth.
        assert cluster.redelivered_after_restart > 0
        assert (
            cluster.redelivered_after_restart
            == report.sharded.wiped_inflight
        )

    def test_deferred_events_are_published_after_recovery(self):
        simulation, points, publishers = make_run()
        report = simulation.run(points, publishers)
        # Arrivals inside a 25-unit window with unit inter-arrival must
        # have been deferred, and deferral never loses an event.
        assert report.sharded.deferred_events > 0
        assert report.events == EVENTS
        assert report.sharded.delivered_events == EVENTS
        assert report.sharded.match_parity

    def test_report_rows_include_durability(self):
        simulation, points, publishers = make_run()
        report = simulation.run(points, publishers)
        labels = {label for label, _ in report.summary_rows()}
        assert {
            "home crashes/restarts",
            "restart digests",
            "wal bytes truncated at restart",
        } <= labels


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        """Same seed + crash plan ⇒ same WAL bytes, digests, report."""
        reports, dumps = [], []
        for _ in range(2):
            simulation, points, publishers = make_run()
            reports.append(simulation.run(points, publishers))
            dumps.append(home_storage(simulation)[0].dump())
        first, second = reports
        assert dumps[0] == dumps[1]
        assert first.cluster.restart_digests == second.cluster.restart_digests
        assert first.delivered == second.delivered
        assert first.missing == second.missing
        assert first.finished_at == second.finished_at

    def test_corrupted_runs_recover_deterministically(self):
        reports = []
        for _ in range(2):
            simulation, points, publishers = make_run(corrupt="torn-tail")
            reports.append(simulation.run(points, publishers))
        first, second = reports
        assert first.cluster.restart_truncated > 0
        assert first.cluster.restart_digests == second.cluster.restart_digests
        assert (
            first.cluster.restart_truncated
            == second.cluster.restart_truncated
        )

    def test_recovered_matching_equals_uncrashed_broker(self):
        """Post-restart MatchResults match a broker that never crashed."""
        simulation, points, publishers = make_run()
        simulation.run(points, publishers)
        pristine, density = build_chaos_testbed(
            seed=2003, subscriptions=SUBSCRIPTIONS, num_groups=7
        )
        probes, _ = PublicationGenerator(
            density, pristine.topology.all_stub_nodes(), seed=555
        ).generate(50)
        recovered = simulation.router.shards[0]
        for sequence, point in enumerate(probes):
            event = Event.create(sequence, 0, point)
            got = recovered.match(event)
            expected = pristine.engine.match(event)
            assert got.subscription_ids == tuple(
                sorted(expected.subscription_ids)
            )
            assert got.subscribers == expected.subscribers


class TestCorruption:
    @pytest.mark.parametrize("kind", ["torn-tail", "bit-flip"])
    def test_corruption_truncates_and_never_duplicates(self, kind):
        simulation, points, publishers = make_run(corrupt=kind)
        report = simulation.run(points, publishers)
        cluster = report.cluster
        assert cluster.home_wal_corruptions == 2
        assert cluster.restart_truncated > 0
        assert cluster.restarts == 2
        assert report.duplicate_deliveries == 0
        assert report.sharded.accounted
        assert report.sharded.match_parity
        # The repaired log is clean at the end of the run.
        assert home_storage(simulation)[0].scan().clean


class TestLongCrash:
    def test_zero_standbys_wait_out_a_crash_past_confirm_after(self):
        """The home is confirmed dead with nobody to promote: the shard
        waits for the restart instead of being ring-excluded, and the
        restarted home rejoins the view."""
        simulation, points, publishers = make_run(
            crashes=1, crash_length=58.0
        )
        (crash,) = simulation.plan.crashes
        assert crash.end - crash.start > (
            simulation.membership.config.confirm_after
        )
        report = simulation.run(points, publishers)
        cluster = report.cluster
        assert cluster.confirmed_deaths == 1
        assert cluster.ring_exclusions == 0
        assert cluster.takeovers == 0
        assert cluster.restarts == 1
        assert report.sharded.shard_kills == 0
        assert report.exactly_once
        home = simulation.homes[0]
        assert simulation.membership.is_usable(home)
        assert (cluster.members_alive, cluster.members_dead) == (1, 0)


class TestHarnessValidation:
    def test_plan_builder_validation(self):
        broker, _ = build_chaos_testbed(seed=3, subscriptions=40, num_groups=5)
        with pytest.raises(ValueError, match="crashes must be >= 1"):
            make_plan(broker, crashes=0)
        with pytest.raises(ValueError, match="no up-time"):
            make_plan(broker, crashes=3, crash_length=200.0)

    def test_plan_builder_homes_all_crashes_on_one_transit_node(self):
        broker, _ = build_chaos_testbed(seed=3, subscriptions=40, num_groups=5)
        plan, homes, standby_map, _, _ = make_plan(
            broker, seed=7, crashes=3, crash_length=10.0, corrupt="bit-flip"
        )
        assert standby_map == {0: []}
        assert homes[0] in set(broker.topology.all_transit_nodes())
        assert all(c.node == homes[0] for c in plan.crashes)
        assert [c.crash_index for c in plan.wal_corruptions] == [0, 1, 2]
        assert plan.enabled

    def test_wal_corruption_validation(self):
        with pytest.raises(ValueError, match="kind"):
            WalCorruption(kind="melted")
        with pytest.raises(ValueError, match="crash_index"):
            WalCorruption(crash_index=-1)
        with pytest.raises(ValueError, match="tail_bytes"):
            WalCorruption(kind="torn-tail", tail_bytes=0)
        with pytest.raises(ValueError, match="flip_offset"):
            WalCorruption(kind="bit-flip", flip_offset=0)
        with pytest.raises(ValueError, match="flip_bit"):
            WalCorruption(kind="bit-flip", flip_bit=9)

    def test_wal_corruption_apply(self):
        from repro.durability import RecordKind

        wal = MemoryWAL()
        for i in range(3):
            wal.append(RecordKind.DELIVER, {"seq": i, "target": i})
        assert WalCorruption(kind="torn-tail", tail_bytes=4).apply(wal)
        assert not wal.scan().clean

    def test_external_stores_are_honoured(self):
        """A ``wal_factory`` log backs the home it is given for."""
        wal = MemoryWAL(clock=lambda: 0.0)
        simulation, _, _ = make_run(
            seed=11, crashes=1, crash_length=10.0,
            wal_factory=lambda node: wal,
        )
        assert home_storage(simulation)[0] is wal
        # The bootstrap checkpoint already landed in the log and store.
        assert home_storage(simulation)[1].ids() == [0]
        assert wal.appends >= 1
