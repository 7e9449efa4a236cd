"""A shard failover keeps the cluster delivering.

The full-stack harness (four replicated shards, membership) runs the
kill and double-kill scenarios over 600 events.  Every takeover must
wait out the membership hysteresis and land within two heartbeats of
the confirmation deadline, the cluster must keep delivering while it
waits, and the delivered fraction after the failover must stay close
to the one before the kill.  All times are simulated.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster import MembershipConfig
from repro.faults import FullStackChaosSimulation, build_cluster_plan
from repro.faults.verifier import build_chaos_testbed
from repro.sharding import ShardMap
from repro.workload import PublicationGenerator

SEED = 2003
EVENTS = 600
SUBSCRIPTIONS = 300


@pytest.fixture(scope="module")
def workload():
    broker, density = build_chaos_testbed(
        seed=SEED, subscriptions=SUBSCRIPTIONS, num_groups=9
    )
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=SEED + 9
    ).generate(EVENTS)
    return broker, points, publishers


def _run_scenario(broker, points, publishers, scenario):
    shard_map = ShardMap.plan(broker.partition, 4)
    plan, homes, standby_map, planned, corruptions = build_cluster_plan(
        broker.topology,
        shard_map,
        seed=SEED,
        scenario=scenario,
        horizon=float(len(points)),
    )
    simulation = FullStackChaosSimulation(
        broker,
        plan,
        standby_map,
        num_shards=4,
        shard_homes=homes,
        migrations=planned,
        corruptions=corruptions,
    )
    report = simulation.run(points, publishers)
    return plan, simulation, report


def _phase_fractions(simulation, plan, report, horizon):
    """``{phase: (events, deliveries, delivered fraction)}`` before,
    during and after the first failover.

    Events arrive one per simulated time unit, so the publish
    timestamps bucket each event into a phase; the failover window
    opens at the kill and closes when the takeover lands.
    """
    ledger = simulation.ledger
    kill_at = min(k.at for k in plan.broker_kills)
    takeover_at = kill_at + max(report.cluster.takeover_durations)
    phases = {}
    for name, lo, hi in (
        ("before", 0.0, kill_at),
        ("during", kill_at, takeover_at),
        ("after", takeover_at, horizon),
    ):
        sequences = {
            s for s, t in ledger._published_at.items() if lo <= t < hi
        }
        expected = sum(len(ledger._expected.get(s, ())) for s in sequences)
        delivered = sum(
            1
            for (s, subscriber), count in ledger._counts.items()
            if s in sequences
            and count >= 1
            and subscriber in ledger._expected.get(s, ())
        )
        fraction = delivered / expected if expected else 1.0
        phases[name] = (len(sequences), delivered, fraction)
    return phases


def _p95(samples):
    ordered = sorted(samples)
    return ordered[max(math.ceil(0.95 * len(ordered)) - 1, 0)]


def test_takeovers_land_after_the_hysteresis_and_delivery_goes_on(workload):
    broker, points, publishers = workload
    plan, simulation, report = _run_scenario(broker, points, publishers, "kill")
    phases = _phase_fractions(simulation, plan, report, float(len(points)))
    _, _, double_report = _run_scenario(
        broker, points, publishers, "double-kill"
    )
    durations = list(report.cluster.takeover_durations) + list(
        double_report.cluster.takeover_durations
    )

    # Every scenario's failovers actually happened.
    assert report.cluster.takeovers == 1
    assert double_report.cluster.takeovers == 2
    assert len(durations) == 3
    # The takeover waits out the hysteresis but lands within two
    # heartbeats of the confirmation deadline.
    defaults = MembershipConfig()
    confirm = defaults.confirm_after
    slack = 2 * defaults.heartbeat_interval
    assert all(confirm < d <= confirm + slack for d in durations), durations
    assert confirm < _p95(durations) <= confirm + slack
    # The cluster kept delivering during the failover window, and the
    # post-failover delivered fraction stayed close to the pre-kill one
    # (residual misses are subscribers on the killed node itself).
    assert phases["during"][1] > 0
    assert phases["after"][2] >= 0.80
    assert phases["before"][2] >= 0.95
