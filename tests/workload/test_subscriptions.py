"""Unit tests for the stock subscription generator."""

import math

import numpy as np
import pytest

from repro.workload import (
    PRICE_PARAMS,
    VOLUME_PARAMS,
    DIM_BST,
    DIM_NAME,
    DIM_QUOTE,
    DIM_VOLUME,
    IntervalDistributionParams,
    NameFieldParams,
    StockSubscriptionGenerator,
    bst_interval,
)


@pytest.fixture(scope="module")
def many_subscriptions(paper_topology):
    generator = StockSubscriptionGenerator(paper_topology, seed=42)
    return generator.generate(3000)


class TestParamValidation:
    def test_paper_rows(self):
        assert PRICE_PARAMS.q0 == 0.15
        assert VOLUME_PARAMS.q0 == 0.35
        assert PRICE_PARAMS.bounded_probability == pytest.approx(0.65)
        assert VOLUME_PARAMS.bounded_probability == pytest.approx(0.45)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            IntervalDistributionParams(
                q0=0.6, q1=0.3, q2=0.3,
                mu1=0, sigma1=1, mu2=0, sigma2=1, mu3=0, sigma3=1,
                pareto_c=1, pareto_alpha=1,
            )
        with pytest.raises(ValueError):
            IntervalDistributionParams(
                q0=-0.1, q1=0.1, q2=0.1,
                mu1=0, sigma1=1, mu2=0, sigma2=1, mu3=0, sigma3=1,
                pareto_c=1, pareto_alpha=1,
            )

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            IntervalDistributionParams(
                q0=0.1, q1=0.1, q2=0.1,
                mu1=0, sigma1=0, mu2=0, sigma2=1, mu3=0, sigma3=1,
                pareto_c=1, pareto_alpha=1,
            )


class TestBstField:
    def test_bst_interval_codes(self):
        assert bst_interval("B").contains(1.0)
        assert bst_interval("S").contains(2.0)
        assert bst_interval("T").contains(3.0)
        assert not bst_interval("B").contains(2.0)

    def test_bst_interval_rejects_unknown(self):
        with pytest.raises(ValueError):
            bst_interval("X")

    def test_bst_frequencies(self, many_subscriptions):
        codes = [
            s.rectangle.highs[DIM_BST] for s in many_subscriptions
        ]
        counts = {c: codes.count(c) for c in (1.0, 2.0, 3.0)}
        total = len(codes)
        assert counts[1.0] / total == pytest.approx(0.4, abs=0.04)
        assert counts[2.0] / total == pytest.approx(0.4, abs=0.04)
        assert counts[3.0] / total == pytest.approx(0.2, abs=0.04)

    def test_bst_is_unit_interval(self, many_subscriptions):
        for s in many_subscriptions[:200]:
            lo = s.rectangle.lows[DIM_BST]
            hi = s.rectangle.highs[DIM_BST]
            assert hi - lo == pytest.approx(1.0)


class TestNameField:
    def test_centers_follow_block(self, many_subscriptions):
        params = NameFieldParams()
        by_block = {0: [], 1: [], 2: []}
        for s in many_subscriptions:
            lo = s.rectangle.lows[DIM_NAME]
            hi = s.rectangle.highs[DIM_NAME]
            by_block[s.block].append((lo + hi) / 2)
        for block, centers in by_block.items():
            expected = params.block_centers[block]
            assert np.mean(centers) == pytest.approx(expected, abs=0.5)

    def test_lengths_within_zipf_range(self, many_subscriptions):
        params = NameFieldParams()
        for s in many_subscriptions[:300]:
            length = (
                s.rectangle.highs[DIM_NAME] - s.rectangle.lows[DIM_NAME]
            )
            # (center ± length/2) loses half an ulp now and then.
            assert 1.0 - 1e-9 <= length <= params.max_length + 1e-9

    def test_short_lengths_most_common(self, many_subscriptions):
        lengths = [
            round(s.rectangle.highs[DIM_NAME] - s.rectangle.lows[DIM_NAME])
            for s in many_subscriptions
        ]
        counts = {v: lengths.count(v) for v in set(lengths)}
        assert counts[min(counts)] == max(counts.values())

    def test_center_for_block_fallback(self):
        params = NameFieldParams()
        assert params.center_for_block(99) == params.block_centers[-1]


class TestParametricFields:
    @pytest.mark.parametrize(
        "dim, params",
        [(DIM_QUOTE, PRICE_PARAMS), (DIM_VOLUME, VOLUME_PARAMS)],
    )
    def test_branch_frequencies(self, many_subscriptions, dim, params):
        wildcard = lower = upper = bounded = 0
        for s in many_subscriptions:
            lo, hi = s.rectangle.lows[dim], s.rectangle.highs[dim]
            if math.isinf(lo) and math.isinf(hi):
                wildcard += 1
            elif math.isinf(hi):
                lower += 1
            elif math.isinf(lo):
                upper += 1
            else:
                bounded += 1
        total = len(many_subscriptions)
        assert wildcard / total == pytest.approx(params.q0, abs=0.03)
        assert lower / total == pytest.approx(params.q1, abs=0.03)
        assert upper / total == pytest.approx(params.q2, abs=0.03)
        assert bounded / total == pytest.approx(
            params.bounded_probability, abs=0.03
        )

    def test_ray_endpoints_near_mu(self, many_subscriptions):
        endpoints = [
            s.rectangle.lows[DIM_QUOTE]
            for s in many_subscriptions
            if math.isinf(s.rectangle.highs[DIM_QUOTE])
            and not math.isinf(s.rectangle.lows[DIM_QUOTE])
        ]
        assert np.mean(endpoints) == pytest.approx(
            PRICE_PARAMS.mu1, abs=0.3
        )

    def test_bounded_lengths_at_least_pareto_scale(
        self, many_subscriptions
    ):
        lengths = [
            s.rectangle.highs[DIM_QUOTE] - s.rectangle.lows[DIM_QUOTE]
            for s in many_subscriptions
            if all(map(math.isfinite, s.rectangle.sides[DIM_QUOTE]))
        ]
        assert min(lengths) >= PRICE_PARAMS.pareto_c - 1e-9

    def test_pareto_cap_bounds_lengths(self, paper_topology):
        generator = StockSubscriptionGenerator(
            paper_topology, pareto_cap=20.0, seed=3
        )
        for s in generator.generate(500):
            side = s.rectangle.sides[DIM_VOLUME]
            if all(map(math.isfinite, side)):
                assert side.hi - side.lo <= 20.0 + 1e-9


class TestPlacementIntegration:
    def test_block_shares(self, many_subscriptions):
        blocks = np.bincount(
            [s.block for s in many_subscriptions], minlength=3
        ) / len(many_subscriptions)
        assert blocks[0] == pytest.approx(0.4, abs=0.04)
        assert blocks[1] == pytest.approx(0.3, abs=0.04)
        assert blocks[2] == pytest.approx(0.3, abs=0.04)

    def test_nodes_are_stub_nodes(
        self, paper_topology, many_subscriptions
    ):
        stub_nodes = set(paper_topology.all_stub_nodes())
        assert all(s.node in stub_nodes for s in many_subscriptions)

    def test_node_matches_declared_stub(
        self, paper_topology, many_subscriptions
    ):
        for s in many_subscriptions[:300]:
            assert s.node in paper_topology.stub_members[s.stub]
            assert paper_topology.stub_block[s.stub] == s.block

    def test_subscription_ids_sequential(self, many_subscriptions):
        assert [s.subscription_id for s in many_subscriptions] == list(
            range(len(many_subscriptions))
        )

    def test_deterministic(self, paper_topology):
        a = StockSubscriptionGenerator(paper_topology, seed=9).generate(50)
        b = StockSubscriptionGenerator(paper_topology, seed=9).generate(50)
        assert [s.rectangle for s in a] == [s.rectangle for s in b]
        assert [s.node for s in a] == [s.node for s in b]

    def test_negative_count_rejected(self, paper_topology):
        with pytest.raises(ValueError):
            StockSubscriptionGenerator(paper_topology, seed=1).generate(-1)
