"""Sessions — catch-up replay must not tax the live path.

Two runs over the identical testbed, workload, seed and fault plan:

* **baseline** — every session stays attached; no abuse, no replay;
* **replay** — the victim detaches mid-run and resumes with a backlog,
  so catch-up replay streams the gap (token-bucket budgeted) while the
  control sessions keep receiving live traffic.

The claim under test: replay's extra traffic is paced tightly enough
that the *control* sessions' live-path p95 latency does not degrade
beyond the no-replay baseline (small scheduling epsilon allowed).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.faults.plan import FaultPlan
from repro.faults.sessions import (
    SessionChaosSimulation,
    select_session_nodes,
)
from repro.faults.verifier import build_chaos_testbed
from repro.workload import PublicationGenerator

SEED = 2003
EVENTS = 200
#: Headroom for discrete-event scheduling noise: replay packets can
#: legally queue ahead of a live packet on a shared link, so "no
#: degradation" means p95 within this factor, not bit-equality.
EPSILON = 1.10


class _NoAbuseSimulation(SessionChaosSimulation):
    """The control arm: same stack, same sessions, nothing detaches."""

    def _arm(self, arrival_times):
        pass


def _build(seed, abuse):
    broker, density = build_chaos_testbed(seed=seed, subscriptions=300)
    nodes = select_session_nodes(broker, 6)
    plan = FaultPlan(seed=seed, default_loss=0.0)
    cls = SessionChaosSimulation if abuse else _NoAbuseSimulation
    simulation = cls(
        broker,
        plan,
        scenario="crash",  # pure detach/resume; the plan has no faults
        session_nodes=nodes,
        lease=0.5 * EVENTS,
    )
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=seed + 7
    ).generate(EVENTS)
    times = [float(i) for i in range(EVENTS)]
    return simulation, points, publishers, times


def _control_p95(simulation):
    """p95 latency over the untouched (non-victim, non-ghost) sessions."""
    skip = {
        simulation.victim.session_id,
        simulation.ghost.session_id,
    }
    samples = [
        latency
        for session_id, latencies in simulation.session_latencies.items()
        if session_id not in skip
        for latency in latencies
    ]
    return float(np.percentile(samples, 95)), len(samples)


def test_bench_replay_does_not_delay_the_live_path(benchmark):
    def run_both():
        base_sim, *base_work = _build(SEED, abuse=False)
        base_report = base_sim.run(*base_work)
        replay_sim, *replay_work = _build(SEED, abuse=True)
        replay_report = replay_sim.run(*replay_work)
        return base_sim, base_report, replay_sim, replay_report

    base_sim, base_report, replay_sim, replay_report = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )

    base_p95, base_n = _control_p95(base_sim)
    replay_p95, replay_n = _control_p95(replay_sim)
    print("\nSessions — live-path p95 with and without catch-up replay")
    print(
        format_table(
            ("arm", "control p95", "samples", "replay sends", "throttled"),
            [
                ("baseline", f"{base_p95:.2f}", base_n, 0, 0),
                (
                    "replay",
                    f"{replay_p95:.2f}",
                    replay_n,
                    replay_report.replay_sends,
                    replay_report.replay_throttled,
                ),
            ],
        )
    )

    # Both arms keep the guarantee.
    assert base_report.at_least_once
    assert replay_report.at_least_once
    # The replay arm actually replayed a backlog.
    assert replay_report.replay_sends >= 1
    assert replay_report.convergences >= 1
    # The control sessions saw identical live traffic in both arms.
    assert base_n == replay_n
    # The headline claim: budgeted replay leaves the live path's tail
    # latency where the no-replay baseline put it.
    assert replay_p95 <= base_p95 * EPSILON, (
        f"replay degraded live p95: {replay_p95:.3f} vs "
        f"baseline {base_p95:.3f}"
    )
