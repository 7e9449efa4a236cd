"""The full stack under faults: replicated shards, durable sessions."""

from __future__ import annotations

from time import perf_counter_ns
from typing import Dict, List, Tuple

import numpy as np

from repro.core.distribution import ThresholdPolicy
from repro.faults import (
    FullStackChaosSimulation,
    RetryConfig,
    build_cluster_plan,
    unsharded_match_digest,
)
from repro.faults.plan import BrokerCrash, FaultPlan
from repro.faults.sessions import SessionChaosSimulation, select_session_nodes
from repro.faults.verifier import build_chaos_testbed
from repro.sharding import ShardMap
from repro.workload.publications import PublicationGenerator

from ..harness import SETUP_READINGS, Rep, Timer, Workload
from .core import DEPLOY_SEED, GROUPS, THRESHOLD

SUBSCRIPTIONS = 300
SHARDS = 4
STANDBYS = 2
CLUSTER_LOSS = 0.1
SESSION_LOSS = 0.05
SESSIONS = 6
MAX_ATTEMPTS = 8
#: Simulated time between two ticks (an event arrives every 1.0): a
#: few thousand ticks a run, each under 2 µs.
TICK_EVERY = 2.0


class Ticks:
    """Cuts ``simulation.run``, which is one call, into units of work.

    A callback of the benchmark's own, scheduled through the
    simulator's public ``schedule`` at fixed simulated instants.  The
    stretch from one tick's return to the next tick's call is a unit;
    between units the harness may read the host's speed, which is the
    point, and that reading is in no unit.  A tick reschedules itself
    only while other callbacks are pending, so the simulation still
    runs dry and ends.
    """

    def __init__(self, simulator, timer: Timer):
        self.simulator = simulator
        self.timer = timer
        self.ends: List[int] = []
        self.starts: List[int] = []
        simulator.schedule(TICK_EVERY, self)

    def begin(self) -> None:
        self.timer.read(0)
        self.starts.append(perf_counter_ns())

    def __call__(self) -> None:
        now = perf_counter_ns()
        unit = len(self.ends)
        self.ends.append(now)
        self.timer.worked(unit, now - self.starts[unit])
        if self.simulator.pending:
            self.simulator.schedule(TICK_EVERY, self)
        self.starts.append(perf_counter_ns())

    def work_ns(self, finished: int) -> np.ndarray:
        """Per unit, the last one ending when ``run`` returned."""
        return np.array(self.ends + [finished]) - np.array(self.starts)


class StackWorkload(Workload):
    """Each rep builds a fresh simulation and runs it to completion.

    Simulations are single-use, so the build is part of every rep and
    reported as set-up.  Every rep of a run draws its own event stream
    and fault plan from the run's seed; the median over reps is what
    is reported.
    """

    event_unit = "event"

    def __init__(self, name: str, events: int, corrupt_oracle: bool = False):
        self.name = name
        self.events = events
        self.corrupt_oracle = corrupt_oracle

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.reps_done = 0

    def _build(self, stream_seed: int):
        raise NotImplementedError

    def _run(self, built):
        raise NotImplementedError

    def _verdict(self, built, report) -> Tuple[int, int, Dict[str, float]]:
        """``(attempted, failed, counts)`` from the run's own ledgers."""
        raise NotImplementedError

    def rep(self, timer: Timer) -> Rep:
        stream_seed = self.seed * 1000 + self.reps_done
        self.reps_done += 1
        build = timer.call("bench.build")
        run = timer.call("bench.run")
        before = timer.now(SETUP_READINGS)
        with timer.phase("setup"):
            built, build_ns = build(self._build, stream_seed)
        slowdown = (before + timer.now(SETUP_READINGS)) / 2
        ticks = Ticks(built[0].simulator, timer)
        with timer.phase("timed"):
            ticks.begin()
            report, _ = run(self._run, built)
            finished = perf_counter_ns()
        attempted, failed, counts = self._verdict(built, report)
        counts["simulation.callbacks"] -= len(ticks.ends)
        return Rep(
            events=self.events,
            # From the call to the first tick, tick to tick, and from the
            # last tick to the return (the harness's own post-processing).
            work_ns=ticks.work_ns(finished),
            setup_s=build_ns / 1e9 / slowdown,
            attempted=attempted,
            failed=failed,
            counts=counts,
        )


def _transport_counts(simulation, report) -> Dict[str, float]:
    stats = report.reliability
    return {
        "faults.sends": float(stats.tracked),
        "faults.retries": float(stats.retries),
        "faults.acks": float(stats.acked),
        "faults.gave_up": float(stats.gave_up),
        "faults.duplicates_suppressed": float(stats.duplicates_suppressed),
        "simulation.transmissions": float(
            simulation.network.log.transmissions
        ),
        "simulation.callbacks": float(simulation.simulator.events_processed),
        "simulation.delivery_p95": float(report.latency.p95),
    }


class ClusterKillWorkload(StackWorkload):
    """``repro chaos --cluster --cluster-scenario kill``."""

    def _build(self, stream_seed: int):
        broker, density = build_chaos_testbed(
            seed=DEPLOY_SEED, subscriptions=SUBSCRIPTIONS, num_groups=GROUPS
        )
        broker = broker.with_policy(ThresholdPolicy(THRESHOLD))
        points, publishers = PublicationGenerator(
            density, broker.topology.all_stub_nodes(), seed=stream_seed
        ).generate(self.events)
        shard_map = ShardMap.plan(broker.partition, SHARDS)
        plan, homes, standby_map, planned, corruptions = build_cluster_plan(
            broker.topology,
            shard_map,
            seed=stream_seed,
            loss=CLUSTER_LOSS,
            scenario="kill",
            horizon=max(float(self.events), 300.0),
            standby_count=STANDBYS,
        )
        simulation = FullStackChaosSimulation(
            broker,
            plan,
            standby_map,
            num_shards=SHARDS,
            shard_homes=homes,
            migrations=planned,
            corruptions=corruptions,
        )
        simulation.transport.config = RetryConfig.for_network(
            simulation.network, max_attempts=MAX_ATTEMPTS
        )
        return simulation, points, publishers, broker

    def _run(self, built):
        simulation, points, publishers, _ = built
        return simulation.run(points, publishers)

    def _verdict(self, built, report):
        simulation, points, _, broker = built
        reference = unsharded_match_digest(
            broker, points, simulation.serviced_sequences
        )
        if self.corrupt_oracle:
            reference += "!"
        sound = (
            report.sharded.accounted
            and report.sharded.match_parity
            and reference == report.sharded.match_digest
            and report.cluster.takeovers >= 1
        )
        attempted = report.expected
        failed = (
            report.duplicate_deliveries + report.sharded.unexplained_misses
            if sound
            else attempted
        )
        counts = _transport_counts(simulation, report)
        counts.update(
            {
                "faults.delivered_share": report.delivered / report.expected,
                "replication.catchups": float(report.shipping.catchups),
                "replication.batches": float(report.shipping.batches),
                "replication.ops_shipped": float(report.shipping.ops_shipped),
                "replication.acks": float(report.shipping.acks),
                "replication.backpressure_skips": float(
                    report.shipping.backpressure_skips
                ),
                "cluster.takeovers": float(report.cluster.takeovers),
                "sharding.imbalance": float(report.sharded.imbalance),
            }
        )
        return attempted, failed, counts


class SessionsCrashWorkload(StackWorkload):
    """``build_session_chaos("crash", ...)`` on the fixed deployment."""

    def _build(self, stream_seed: int):
        broker, density = build_chaos_testbed(
            seed=DEPLOY_SEED, subscriptions=SUBSCRIPTIONS
        )
        nodes = select_session_nodes(broker, SESSIONS)
        horizon = float(self.events)
        plan = FaultPlan(
            seed=stream_seed,
            default_loss=SESSION_LOSS,
            crashes=(
                BrokerCrash(
                    node=nodes[0], start=0.35 * horizon, end=0.65 * horizon
                ),
            ),
        )
        simulation = SessionChaosSimulation(
            broker,
            plan,
            scenario="crash",
            session_nodes=nodes,
            lease=0.35 * horizon,
        )
        points, publishers = PublicationGenerator(
            density, broker.topology.all_stub_nodes(), seed=stream_seed
        ).generate(self.events)
        arrivals = [float(i) for i in range(self.events)]
        return simulation, points, publishers, arrivals

    def _run(self, built):
        simulation, points, publishers, arrivals = built
        return simulation.run(points, publishers, arrivals)

    def _verdict(self, built, report):
        simulation = built[0]
        victim = simulation.victim.session_id
        settled = simulation.delivered_seqs[victim] | {
            entry.sequence
            for entry in simulation.dlq.entries()
            if entry.session_id == victim
        }
        if self.corrupt_oracle:
            settled = settled | {-1}
        sound = (
            report.at_least_once
            and settled == simulation.matched_seqs[victim]
            and report.replay_sends >= 1
        )
        attempted = report.matched
        failed = (
            len(report.unsettled) + report.duplicates if sound else attempted
        )
        counts = _transport_counts(simulation, report)
        counts.update(
            {
                "faults.delivered_share": (
                    report.delivered
                    + report.deadlettered
                    + report.expired_ephemeral
                )
                / report.matched,
                "sessions.replay_sends": float(report.replay_sends),
                "sessions.dlq_entries": float(report.dlq_size),
                "sessions.retained_events": float(report.retained_events),
            }
        )
        return attempted, failed, counts
