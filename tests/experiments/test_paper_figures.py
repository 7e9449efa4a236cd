"""The paper's Figures 3-6 and its Section 5 parameter table, at paper
scale.

Each test regenerates one figure or table on the full testbed and
asserts the shape the paper reports; absolute numbers differ from the
paper's (another random topology, synthetic trades), the orderings and
curve shapes are the reproduction target.  ``python -m
repro.experiments.runner --csv`` writes the same figures as tables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import ForgyKMeansClustering
from repro.experiments import (
    run_figure4,
    run_figure5,
    run_figure6,
    run_table1,
    summarize_topology,
    sweep_thresholds,
)
from repro.network import RoutingTable, TransitStubGenerator
from repro.workload import DIM_NAME, StockMarketModel, StockSubscriptionGenerator

# -- Figure 3: the transit-stub topology ----------------------------------------


def test_figure3_topology_has_the_papers_hierarchy(paper_config):
    """The paper's GT-ITM recipe: "three transit blocks ... an average
    of five transit nodes in each block.  Each transit node was
    connected to two stubs on average, each stub having an average of
    twenty nodes"."""
    topology = TransitStubGenerator(seed=paper_config.seed).generate()
    summary = summarize_topology(topology)
    assert summary.is_connected
    assert summary.num_transit_blocks == 3
    assert 400 <= summary.num_nodes <= 800  # "six hundred nodes"-ish
    assert summary.num_stubs == 2 * summary.num_transit_nodes
    assert 15 <= summary.mean_stub_size <= 25  # "twenty nodes" average
    assert summary.num_stub_nodes > 10 * summary.num_transit_nodes


def test_figure3_routing_reaches_across_the_testbed(paper_testbed):
    table = RoutingTable.from_topology(paper_testbed.topology)
    nodes = paper_testbed.topology.all_stub_nodes()
    assert table.distance(nodes[0], nodes[-1]) > 0


# -- Figure 4: one day of trades -------------------------------------------------


def test_figure4_day_has_200k_trades(paper_config):
    day = StockMarketModel(seed=paper_config.seed + 4).generate_day()
    assert day.num_trades == 200_000


def test_figure4_panels_recover_the_three_laws(paper_config):
    """(a) normalized prices ~ normal, (b) popularity ~ Zipf, (c) trade
    amounts heavy-tailed."""
    result = run_figure4(paper_config)
    # (a) bell shape centred on 1 (prices normalized by opening price).
    assert result.price_fit.looks_normal
    assert abs(result.price_fit.mean - 1.0) < 0.01
    assert abs(result.price_histogram.mode_center - 1.0) < 0.02
    # (b) Zipf-like: straight in log-log with slope ~ -1.
    assert result.popularity_fit.looks_power_law
    assert -1.3 < result.popularity_fit.slope < -0.7
    # (c) heavy tail with the configured alpha ~ 1.2.
    assert result.amount_fit.looks_power_law
    assert -1.5 < result.amount_fit.slope < -0.9


# -- Figure 5: the three most traded stocks -------------------------------------


def test_figure5_top_stocks_are_bell_shaped_and_pareto(paper_config):
    panels = run_figure5(paper_config)
    assert len(panels) == 3
    # Popularity ordering: strictly more trades at better ranks (Zipf).
    assert (
        panels[0].num_trades > panels[1].num_trades > panels[2].num_trades
    )
    for panel in panels:
        # Bell-shaped normalized prices centred on the average.
        assert panel.price_fit.looks_normal
        assert abs(panel.price_fit.mean - 1.0) < 0.01
        # Pareto-ish amounts.
        assert panel.amount_fit.looks_power_law
        assert panel.amount_fit.slope < -0.9


# -- Figure 6: dynamic distribution thresholds -----------------------------------


def test_figure6_curves_peak_at_a_small_threshold(paper_config, paper_testbed):
    """Every curve rises from its static (t = 0) value to an optimum at
    a small t and decays to ~0 % at t = 1; the dynamic scheme never
    loses to the static one; 61 groups beat 11; and the 11-group
    multi-mode scenarios the paper highlights gain from the threshold."""
    results = run_figure6(paper_config, paper_testbed)
    expected_count = (
        len(paper_config.mode_counts) * len(paper_config.group_counts) * 3
    )
    assert len(results) == expected_count

    for sweep in results:
        best = sweep.best()
        # Rises to an interior (or static) optimum, decays to ~0 at 1.
        assert best.improvement_percent >= sweep.static_improvement
        assert best.improvement_percent > 20.0, sweep
        assert sweep.at(1.0).improvement_percent == pytest.approx(
            0.0, abs=1.0
        )
        # The optimum threshold is small, as the paper reports.
        assert best.threshold <= 0.30, sweep
        # Dynamic decisions never hurt.
        assert sweep.dynamic_gain >= -1e-9

    # More groups help, scenario by scenario, algorithm by algorithm.
    by_key = {
        (s.algorithm, s.modes, s.num_groups): s.best().improvement_percent
        for s in results
    }
    for algorithm in ("forgy", "pairwise", "mst"):
        for modes in paper_config.mode_counts:
            assert (
                by_key[(algorithm, modes, 61)]
                >= by_key[(algorithm, modes, 11)] - 1e-9
            ), (algorithm, modes)

    # The paper's highlighted case: a real dynamic gain for 11 groups
    # in the multi-mode scenarios.
    multi_mode_11 = [
        s for s in results if s.num_groups == 11 and s.modes in (4, 9)
    ]
    assert any(s.dynamic_gain > 1.0 for s in multi_mode_11)


def test_figure6_one_sweep_has_a_point_per_threshold(
    paper_config, paper_testbed
):
    broker = paper_testbed.make_broker(
        ForgyKMeansClustering(), num_groups=11, modes=9
    )
    points, publishers = paper_testbed.publications(9)
    curve = sweep_thresholds(
        broker, points, publishers, paper_config.thresholds
    )
    assert len(curve) == len(paper_config.thresholds)


# -- Section 5's parameter table -------------------------------------------------


def test_table1_generates_the_configured_count(paper_config, paper_testbed):
    placed = StockSubscriptionGenerator(
        paper_testbed.topology, seed=paper_config.seed + 1
    ).generate(paper_config.num_subscriptions)
    assert len(placed) == paper_config.num_subscriptions


def test_table1_subscriptions_match_the_papers_parameters(
    paper_config, paper_testbed
):
    """The realized interval-branch frequencies match the paper's table

    ==========  ====  ===  ===  =========
    field       q0    q1   q2   (bounded)
    ==========  ====  ===  ===  =========
    price       0.15  0.1  0.1  0.65
    volume      0.35  0.1  0.1  0.45
    ==========  ====  ===  ===  =========

    plus the 40/30/30 transit-block split and the per-block name anchors.
    """
    for row in run_table1(paper_config, paper_testbed):
        assert row.within_tolerance(0.05), row
        # Bounded intervals obey the Pareto minimum length c = 4.
        assert row.measured.bounded_min_length >= 4.0 - 1e-9
        # Bounded centers sit near mu3 = 9.
        assert abs(row.measured.bounded_center_mean - 9.0) < 0.5

    # 40/30/30 block split and per-block name anchors (3, 10, 17).
    placed = paper_testbed.placed
    blocks = np.bincount([s.block for s in placed], minlength=3)
    shares = blocks / len(placed)
    assert abs(shares[0] - 0.4) < 0.05
    assert abs(shares[1] - 0.3) < 0.05
    assert abs(shares[2] - 0.3) < 0.05
    for block, anchor in enumerate((3.0, 10.0, 17.0)):
        centers = [
            (s.rectangle.lows[DIM_NAME] + s.rectangle.highs[DIM_NAME]) / 2
            for s in placed
            if s.block == block
        ]
        assert abs(np.mean(centers) - anchor) < 1.0
