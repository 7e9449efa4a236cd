"""Extension experiments beyond the paper's evaluation.

Three studies the paper motivates but does not run:

1. **Dense vs sparse multicast** — Section 5.2 describes both router
   modes and assumes dense mode; this benchmark quantifies what the
   choice costs on the same testbed (the shared tree pays a
   publisher->rendezvous detour, but keeps per-group state only).
2. **Per-group thresholds and the oracle** — Section 6's future work:
   tune one threshold per group on a training workload, evaluate on a
   held-out workload, and compare global-t / per-group-t / per-event
   oracle.  The oracle is the tightest bound any rule restricted to
   the precomputed groups can reach.
3. **Subscription churn** — sustained subscribe/publish/unsubscribe
   interleaving over the dynamic broker, with exact-matching checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import format_table
from repro.clustering import ForgyKMeansClustering
from repro.core import (
    DynamicPubSubBroker,
    PubSubBroker,
    SubscriptionTable,
    ThresholdPolicy,
    ThresholdTuner,
    oracle_tally,
)
from repro.geometry import Rectangle
from repro.network import DeliveryCostModel


def test_bench_extension_dense_vs_sparse(benchmark, config, testbed):
    density = testbed.density(9)
    points, publishers = testbed.publications(9)
    rows = []

    def run():
        rows.clear()
        for mode in ("dense", "sparse"):
            cost_model = DeliveryCostModel(
                testbed.topology, multicast_mode=mode
            )
            broker = PubSubBroker.preprocess(
                testbed.topology,
                testbed.table,
                ForgyKMeansClustering(),
                num_groups=11,
                density=density,
                cells_per_dim=config.cells_per_dim,
                max_cells=config.max_cells,
                policy=ThresholdPolicy(0.10),
                cost_model=cost_model,
            )
            tally, _ = broker.run(points, publishers)
            rows.append(
                (
                    mode,
                    f"{tally.improvement_percent:.1f}%",
                    tally.multicasts_sent,
                    f"{tally.average_message_cost:.1f}",
                )
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nExtension — dense vs sparse multicast (t=0.10, 11 groups)")
    print(
        format_table(
            ("mode", "improvement", "multicasts", "avg msg cost"), rows
        )
    )
    dense_improvement = float(rows[0][1].rstrip("%"))
    sparse_improvement = float(rows[1][1].rstrip("%"))
    # The same decisions are made (sizes/ratios are mode-independent)…
    assert rows[0][2] == rows[1][2]
    # …but the shared tree's detour costs improvement points.
    assert dense_improvement >= sparse_improvement
    assert sparse_improvement > 0.0  # still beats unicast


def test_bench_extension_pergroup_thresholds(benchmark, config, testbed):
    density = testbed.density(9)
    broker = testbed.make_broker(
        ForgyKMeansClustering(), num_groups=11, modes=9
    )
    train_points, train_publishers = testbed.publications(9)
    # Fresh events from the same distribution: the generalization test.
    from repro.workload import PublicationGenerator

    test_points, test_publishers = PublicationGenerator(
        density, testbed.topology.all_stub_nodes(), seed=config.seed + 777
    ).generate(config.num_events)

    results = {}

    def run():
        report = ThresholdTuner(broker).tune(
            train_points, train_publishers
        )
        global_best = max(
            (
                broker.with_policy(ThresholdPolicy(t))
                .run(test_points, test_publishers)[0]
                .improvement_percent,
                t,
            )
            for t in config.thresholds
        )
        tuned, _ = broker.with_policy(report.policy).run(
            test_points, test_publishers
        )
        oracle = oracle_tally(broker, test_points, test_publishers)
        results["report"] = report
        results["global"] = global_best
        results["tuned"] = tuned.improvement_percent
        results["oracle"] = oracle.improvement_percent
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    report = results["report"]
    global_improvement, global_t = results["global"]

    print("\nExtension — per-group thresholds (train on one workload,")
    print("evaluate on a held-out one) vs the per-event oracle")
    print(
        format_table(
            ("policy", "improvement on held-out events"),
            [
                (f"best global t={global_t:.2f}", f"{global_improvement:.2f}%"),
                ("tuned per-group t", f"{results['tuned']:.2f}%"),
                ("per-event oracle", f"{results['oracle']:.2f}%"),
            ],
        )
    )
    print(
        format_table(
            ("group", "size", "events", "mc win rate", "best t"),
            [
                (
                    row.group,
                    row.group_size,
                    row.events,
                    f"{row.multicast_win_rate:.2f}",
                    f"{row.best_threshold:.2f}",
                )
                for row in report.per_group
            ],
        )
    )

    # The oracle dominates every rule; the tuned policy must at least
    # stay competitive with the best global threshold out of sample.
    assert results["oracle"] >= results["tuned"] - 1e-9
    assert results["oracle"] >= global_improvement - 1e-9
    assert results["tuned"] >= global_improvement - 3.0
    # Groups genuinely differ — tuning found non-uniform thresholds.
    tuned_values = set(report.policy.per_group.values())
    assert len(tuned_values) >= 2


def test_bench_extension_adaptive_thresholds(benchmark, config, testbed):
    """Online threshold learning vs fixed and offline-tuned policies.

    The adaptive controller pays exploration on its first pass over
    the workload; once warm it should land between the paper's fixed
    default and the offline per-group tuner.
    """
    from repro.core import run_adaptive

    broker = testbed.make_broker(
        ForgyKMeansClustering(), num_groups=11, modes=9
    )
    points, publishers = testbed.publications(9)
    results = {}

    def run():
        first, policy = run_adaptive(broker, points, publishers)
        second, _ = run_adaptive(broker, points, publishers, policy)
        fixed, _ = broker.with_policy(ThresholdPolicy(0.15)).run(
            points, publishers
        )
        report = ThresholdTuner(broker).tune(points, publishers)
        tuned, _ = broker.with_policy(report.policy).run(
            points, publishers
        )
        results.update(
            first=first.improvement_percent,
            second=second.improvement_percent,
            fixed=fixed.improvement_percent,
            tuned=tuned.improvement_percent,
        )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nExtension — adaptive threshold control (9 modes, 11 groups)")
    print(
        format_table(
            ("policy", "improvement"),
            [
                ("adaptive, first pass (exploring)",
                 f"{results['first']:.1f}%"),
                ("adaptive, second pass (warm)",
                 f"{results['second']:.1f}%"),
                ("fixed t=0.15 (paper default)",
                 f"{results['fixed']:.1f}%"),
                ("offline per-group tuner (upper ref)",
                 f"{results['tuned']:.1f}%"),
            ],
        )
    )
    # Warm adaptive control competes with (here: beats) the fixed
    # default, and cannot beat the exact offline tuner on its own
    # training workload.
    assert results["second"] >= results["fixed"] - 2.0
    assert results["second"] <= results["tuned"] + 2.0


def test_bench_extension_subscription_churn(benchmark, config, testbed):
    density = testbed.density(9)
    points, publishers = testbed.publications(9)
    nodes = testbed.topology.all_stub_nodes()
    rng = np.random.default_rng(config.seed + 555)

    def run():
        table = SubscriptionTable(4)
        for s in testbed.table:
            table.add(s.subscriber, s.rectangle)
        broker = DynamicPubSubBroker.preprocess_dynamic(
            testbed.topology,
            table,
            ForgyKMeansClustering(),
            11,
            density=density,
            cells_per_dim=config.cells_per_dim,
            max_cells=config.max_cells,
            cost_model=testbed.cost_model,
        )
        active = []
        operations = 0
        for i in range(300):
            roll = rng.random()
            if roll < 0.25:
                lo = rng.uniform(-5, 15, size=4)
                sub = broker.subscribe(
                    int(rng.choice(nodes)),
                    Rectangle.from_bounds(
                        lo, lo + rng.uniform(0.5, 10, 4)
                    ),
                )
                active.append(sub.subscription_id)
            elif roll < 0.4 and active:
                broker.unsubscribe(
                    active.pop(int(rng.integers(len(active))))
                )
            else:
                from repro.core import Event

                j = int(rng.integers(len(points)))
                broker.publish(
                    Event.create(i, int(publishers[j]), points[j])
                )
            operations += 1
        return broker, operations

    broker, operations = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nExtension — churn: {operations} mixed operations, "
        f"{broker.live_subscriptions} live subscriptions, "
        f"{broker.engine.rebuilds} index rebuilds"
    )
    assert broker.live_subscriptions > len(testbed.table) - 300
