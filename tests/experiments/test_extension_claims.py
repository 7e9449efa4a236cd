"""Studies the paper motivates but does not run, at paper scale.

- **Dense vs sparse multicast** (Section 5.2 describes both router
  modes and assumes dense): the shared tree's detour costs improvement
  but still beats unicast.
- **Per-group, adaptive and oracle thresholds** (Section 6's future
  work): tuned on one workload and evaluated on a held-out one, the
  per-event oracle bounds every rule restricted to the groups.
- **Subscription churn**: subscribe / publish / unsubscribe interleaved
  on the dynamic broker.
- **Packet-level latency**: the Figure 6 scenario through the
  store-and-forward simulator, bursty and paced.
- **Robustness**: Figure 6's headline shape on five independent
  testbeds.
"""

from __future__ import annotations

import numpy as np

from repro.clustering import ForgyKMeansClustering
from repro.core import (
    DynamicPubSubBroker,
    Event,
    PubSubBroker,
    SubscriptionTable,
    ThresholdPolicy,
    ThresholdTuner,
    oracle_tally,
    run_adaptive,
)
from repro.experiments import run_latency_experiment, run_replication
from repro.geometry import Rectangle
from repro.network import DeliveryCostModel
from repro.workload import PublicationGenerator


def test_sparse_mode_costs_improvement_but_beats_unicast(
    paper_config, paper_testbed
):
    points, publishers = paper_testbed.publications(9)
    tallies = {}
    for mode in ("dense", "sparse"):
        broker = PubSubBroker.preprocess(
            paper_testbed.topology,
            paper_testbed.table,
            ForgyKMeansClustering(),
            num_groups=11,
            density=paper_testbed.density(9),
            cells_per_dim=paper_config.cells_per_dim,
            max_cells=paper_config.max_cells,
            policy=ThresholdPolicy(0.10),
            cost_model=DeliveryCostModel(
                paper_testbed.topology, multicast_mode=mode
            ),
        )
        tallies[mode], _ = broker.run(points, publishers)
    dense, sparse = tallies["dense"], tallies["sparse"]
    # The same decisions are made (sizes/ratios are mode-independent)...
    assert dense.multicasts_sent == sparse.multicasts_sent
    # ...but the shared tree's detour costs improvement points.
    assert dense.improvement_percent >= sparse.improvement_percent
    assert sparse.improvement_percent > 0.0  # still beats unicast


def test_per_group_thresholds_stay_within_the_oracle(
    paper_config, paper_testbed
):
    broker = paper_testbed.make_broker(
        ForgyKMeansClustering(), num_groups=11, modes=9
    )
    train_points, train_publishers = paper_testbed.publications(9)
    # Fresh events from the same distribution: the generalization test.
    test_points, test_publishers = PublicationGenerator(
        paper_testbed.density(9),
        paper_testbed.topology.all_stub_nodes(),
        seed=paper_config.seed + 777,
    ).generate(paper_config.num_events)

    report = ThresholdTuner(broker).tune(train_points, train_publishers)
    global_improvement = max(
        broker.with_policy(ThresholdPolicy(t))
        .run(test_points, test_publishers)[0]
        .improvement_percent
        for t in paper_config.thresholds
    )
    tuned = (
        broker.with_policy(report.policy)
        .run(test_points, test_publishers)[0]
        .improvement_percent
    )
    oracle = oracle_tally(
        broker, test_points, test_publishers
    ).improvement_percent

    # The oracle dominates every rule; the tuned policy must at least
    # stay competitive with the best global threshold out of sample.
    assert oracle >= tuned - 1e-9
    assert oracle >= global_improvement - 1e-9
    assert tuned >= global_improvement - 3.0
    # Groups genuinely differ: tuning found non-uniform thresholds.
    assert len(set(report.policy.per_group.values())) >= 2


def test_warm_adaptive_control_sits_between_fixed_and_tuned(paper_testbed):
    """The adaptive controller pays exploration on its first pass over
    the workload; once warm it competes with the paper's fixed default
    and cannot beat the exact offline tuner on its training workload."""
    broker = paper_testbed.make_broker(
        ForgyKMeansClustering(), num_groups=11, modes=9
    )
    points, publishers = paper_testbed.publications(9)
    _, policy = run_adaptive(broker, points, publishers)
    second, _ = run_adaptive(broker, points, publishers, policy)
    fixed, _ = broker.with_policy(ThresholdPolicy(0.15)).run(
        points, publishers
    )
    report = ThresholdTuner(broker).tune(points, publishers)
    tuned, _ = broker.with_policy(report.policy).run(points, publishers)
    assert second.improvement_percent >= fixed.improvement_percent - 2.0
    assert second.improvement_percent <= tuned.improvement_percent + 2.0


def test_churn_keeps_the_table_live(paper_config, paper_testbed):
    points, publishers = paper_testbed.publications(9)
    nodes = paper_testbed.topology.all_stub_nodes()
    rng = np.random.default_rng(paper_config.seed + 555)
    table = SubscriptionTable(4)
    for s in paper_testbed.table:
        table.add(s.subscriber, s.rectangle)
    broker = DynamicPubSubBroker.preprocess_dynamic(
        paper_testbed.topology,
        table,
        ForgyKMeansClustering(),
        11,
        density=paper_testbed.density(9),
        cells_per_dim=paper_config.cells_per_dim,
        max_cells=paper_config.max_cells,
        cost_model=paper_testbed.cost_model,
    )
    active = []
    for i in range(300):
        roll = rng.random()
        if roll < 0.25:
            lo = rng.uniform(-5, 15, size=4)
            node = int(rng.choice(nodes))
            hi = lo + rng.uniform(0.5, 10, 4)
            sub = broker.subscribe(
                node, Rectangle(tuple(lo.tolist()), tuple(hi.tolist()))
            )
            active.append(sub.subscription_id)
        elif roll < 0.4 and active:
            broker.unsubscribe(active.pop(int(rng.integers(len(active)))))
        else:
            j = int(rng.integers(len(points)))
            broker.publish(Event.create(i, int(publishers[j]), points[j]))
    live = len(broker.table) - len(broker.engine.removed)
    assert live > len(paper_testbed.table) - 300


def test_pacing_shortens_queues_and_tails(paper_config, paper_testbed):
    rows = run_latency_experiment(
        paper_config,
        paper_testbed,
        thresholds=(0.0, 0.10, 1.0),
        num_events=150,
    )
    by_label = {row.label: row.report for row in rows}
    # Same interested sets regardless of policy or pacing.
    assert len({report.deliveries for report in by_label.values()}) == 1

    for threshold in (0.0, 0.10, 1.0):
        burst = by_label[f"t={threshold:.2f}/burst"]
        paced = by_label[f"t={threshold:.2f}/paced"]
        # Pacing the workload can only reduce queueing and tails.
        assert paced.queueing_delay <= burst.queueing_delay
        assert paced.latency.p95 <= burst.latency.p95 + 1e-9
        # The decision mix is timing-independent.
        assert burst.multicasts == paced.multicasts

    # Multicasting to groups with waste spends more copies per useful
    # delivery than pure unicast on this workload (interested sets are
    # small slices of each group): the transmission side of the
    # trade-off the threshold rule navigates.
    assert (
        by_label["t=0.00/burst"].transmissions
        >= by_label["t=1.00/burst"].transmissions
    )


def test_the_headline_shape_holds_on_five_testbeds(paper_config):
    """Topology, subscriptions and events regenerated under five
    independent seeds; Forgy, 11 groups, 9 modes on each."""
    summary = run_replication(paper_config)
    assert len(summary.replicates) == 5
    assert summary.all_shapes_hold(), summary.replicates
    # The effect is substantial on every testbed, not marginal.
    assert min(r.best_improvement for r in summary.replicates) > 15.0
    # And the optimum is consistently a *small* threshold.
    assert max(r.best_threshold for r in summary.replicates) <= 0.30
