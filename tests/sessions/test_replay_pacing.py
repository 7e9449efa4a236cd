"""Catch-up replay must not tax the live path.

Two runs over the identical testbed, workload, seed and fault plan:
in the baseline every session stays attached; in the replay run the
victim detaches mid-run and resumes with a backlog, so catch-up
replay streams the gap (token-bucket budgeted) while the control
sessions keep receiving live traffic.  Replay's extra traffic must be
paced tightly enough that the control sessions' simulated p95 latency
stays where the baseline put it.
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import FaultPlan
from repro.faults.sessions import SessionChaosSimulation, select_session_nodes
from repro.faults.verifier import build_chaos_testbed
from repro.workload import PublicationGenerator

SEED = 2003
EVENTS = 200
#: Headroom for discrete-event scheduling: replay packets can legally
#: queue ahead of a live packet on a shared link, so "no degradation"
#: means p95 within this factor, not bit-equality.
EPSILON = 1.10


class _NoAbuseSimulation(SessionChaosSimulation):
    """The control arm: same stack, same sessions, nothing detaches."""

    def _arm(self, arrival_times):
        pass


def _run(abuse):
    broker, density = build_chaos_testbed(seed=SEED, subscriptions=300)
    cls = SessionChaosSimulation if abuse else _NoAbuseSimulation
    simulation = cls(
        broker,
        FaultPlan(seed=SEED, default_loss=0.0),
        scenario="crash",  # pure detach/resume; the plan has no faults
        session_nodes=select_session_nodes(broker, 6),
        lease=0.5 * EVENTS,
    )
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=SEED + 7
    ).generate(EVENTS)
    report = simulation.run(
        points, publishers, [float(i) for i in range(EVENTS)]
    )
    return simulation, report


def _control_p95(simulation):
    """p95 latency over the untouched (non-victim, non-ghost) sessions,
    and the number of samples."""
    skip = {simulation.victim.session_id, simulation.ghost.session_id}
    samples = [
        latency
        for session_id, latencies in simulation.session_latencies.items()
        if session_id not in skip
        for latency in latencies
    ]
    return float(np.percentile(samples, 95)), len(samples)


def test_replay_does_not_delay_the_live_path():
    base_sim, base_report = _run(abuse=False)
    replay_sim, replay_report = _run(abuse=True)
    base_p95, base_n = _control_p95(base_sim)
    replay_p95, replay_n = _control_p95(replay_sim)

    # Both arms keep the guarantee.
    assert base_report.at_least_once
    assert replay_report.at_least_once
    # The replay arm actually replayed a backlog.
    assert replay_report.replay_sends >= 1
    assert replay_report.convergences >= 1
    # The control sessions saw identical live traffic in both arms.
    assert base_n == replay_n
    # Budgeted replay leaves the live path's tail latency where the
    # no-replay baseline put it.
    assert replay_p95 <= base_p95 * EPSILON, (replay_p95, base_p95)
