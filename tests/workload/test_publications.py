"""Unit tests for publication mixtures and the generator."""

import math

import numpy as np
import pytest

from repro.workload import (
    GaussianMixture1D,
    ProductMixtureDistribution,
    PublicationGenerator,
    four_mode_distribution,
    nine_mode_distribution,
    publication_distribution,
    single_mode_distribution,
)


def num_modes(distribution):
    """Modes of a product of mixtures: the product of component counts."""
    return math.prod(m.num_components for m in distribution.dimensions)


class TestGaussianMixture1D:
    def test_single_component(self):
        mixture = GaussianMixture1D.single(5.0, 2.0)
        assert mixture.num_components == 1
        assert mixture.cdf(5.0) == pytest.approx(0.5)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianMixture1D((0.5, 0.6), (0.0, 1.0), (1.0, 1.0))

    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            GaussianMixture1D((1.0,), (0.0, 1.0), (1.0,))

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            GaussianMixture1D((1.0,), (0.0,), (0.0,))

    def test_cdf_limits(self):
        mixture = GaussianMixture1D((0.5, 0.5), (0.0, 10.0), (1.0, 1.0))
        assert mixture.cdf(-np.inf) == 0.0
        assert mixture.cdf(np.inf) == 1.0
        assert mixture.cdf(5.0) == pytest.approx(0.5, abs=1e-6)

    def test_cdf_array_matches_scalar(self):
        mixture = GaussianMixture1D((0.3, 0.7), (0.0, 4.0), (1.0, 2.0))
        xs = np.array([-np.inf, -1.0, 0.0, 3.0, np.inf])
        bulk = mixture.cdf_array(xs)
        for x, v in zip(xs, bulk):
            assert v == pytest.approx(mixture.cdf(float(x)))

    def test_interval_probability(self):
        mixture = GaussianMixture1D.single(0.0, 1.0)
        assert mixture.interval_probability(-1.0, 1.0) == pytest.approx(
            0.6827, abs=1e-3
        )
        assert mixture.interval_probability(2.0, 1.0) == 0.0

    def test_pdf_integrates_to_one(self):
        mixture = GaussianMixture1D((0.4, 0.6), (0.0, 8.0), (1.0, 2.0))
        xs = np.linspace(-10, 20, 4001)
        total = np.trapezoid([mixture.pdf(x) for x in xs], xs)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_sample_mixture_means(self, rng):
        mixture = GaussianMixture1D((0.5, 0.5), (0.0, 100.0), (1.0, 1.0))
        draws = mixture.sample(rng, 10_000)
        assert np.mean(draws) == pytest.approx(50.0, abs=2.0)
        # Bimodal: essentially nothing between the two modes.
        assert np.mean((draws > 10) & (draws < 90)) < 0.01


class TestPaperScenarios:
    def test_mode_counts(self):
        assert num_modes(single_mode_distribution()) == 1
        assert num_modes(four_mode_distribution()) == 4
        assert num_modes(nine_mode_distribution()) == 9

    def test_lookup(self):
        for modes in (1, 4, 9):
            assert num_modes(publication_distribution(modes)) == modes
        with pytest.raises(ValueError):
            publication_distribution(2)

    def test_single_mode_parameters(self):
        dims = single_mode_distribution().dimensions
        assert [m.means[0] for m in dims] == [1.0, 10.0, 9.0, 9.0]
        assert [m.sigmas[0] for m in dims] == [1.0, 6.0, 2.0, 6.0]

    def test_four_mode_middle_dimensions(self):
        dims = four_mode_distribution().dimensions
        assert dims[1].means == (12.0, 6.0)
        assert dims[2].means == (4.0, 16.0)
        # Outer dims unchanged from the single-mode case.
        assert dims[0].means == (1.0,)
        assert dims[3].means == (9.0,)

    def test_nine_mode_weights(self):
        dims = nine_mode_distribution().dimensions
        assert dims[1].weights == (0.3, 0.4, 0.3)
        assert dims[2].weights == (0.3, 0.4, 0.3)

    def test_all_scenarios_are_4d(self):
        for modes in (1, 4, 9):
            assert publication_distribution(modes).ndim == 4


class TestProductMixture:
    def test_cell_probability_of_everything_is_one(self):
        dist = nine_mode_distribution()
        assert dist.cell_probability(
            [-np.inf] * 4, [np.inf] * 4
        ) == pytest.approx(1.0)

    def test_cell_probability_factorizes(self):
        dist = four_mode_distribution()
        lows = [0.0, 5.0, 2.0, 3.0]
        highs = [2.0, 15.0, 18.0, 12.0]
        expected = 1.0
        for mixture, lo, hi in zip(dist.dimensions, lows, highs):
            expected *= mixture.interval_probability(lo, hi)
        assert dist.cell_probability(lows, highs) == pytest.approx(expected)

    def test_cell_probability_empty_cell(self):
        dist = single_mode_distribution()
        assert dist.cell_probability([0, 0, 0, 0], [0, 1, 1, 1]) == 0.0

    def test_cell_probability_agrees_with_sampling(self, rng):
        dist = nine_mode_distribution()
        lows = np.array([0.0, 5.0, 5.0, 5.0])
        highs = np.array([2.0, 15.0, 12.0, 12.0])
        analytic = dist.cell_probability(lows, highs)
        draws = dist.sample(rng, 50_000)
        empirical = np.mean(
            np.all((draws > lows) & (draws <= highs), axis=1)
        )
        assert empirical == pytest.approx(analytic, abs=0.01)

    def test_per_dimension_masses_sum_to_cdf_span(self):
        dist = single_mode_distribution()
        edges = [np.linspace(-20, 40, 13) for _ in range(4)]
        masses = dist.per_dimension_masses(edges)
        for mixture, edge, mass in zip(dist.dimensions, edges, masses):
            expected = mixture.cdf(edge[-1]) - mixture.cdf(edge[0])
            assert mass.sum() == pytest.approx(expected, abs=1e-9)

    def test_per_dimension_masses_validation(self):
        with pytest.raises(ValueError):
            single_mode_distribution().per_dimension_masses(
                [np.array([0.0, 1.0])]
            )

    def test_pdf_positive_at_mode(self):
        dist = single_mode_distribution()
        assert dist.pdf([1.0, 10.0, 9.0, 9.0]) > 0.0

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            single_mode_distribution().cell_probability([0.0], [1.0])
        with pytest.raises(ValueError):
            single_mode_distribution().pdf([0.0, 1.0])


class TestPublicationGenerator:
    def test_shapes(self, small_topology):
        generator = PublicationGenerator(
            single_mode_distribution(),
            small_topology.all_stub_nodes(),
            seed=5,
        )
        points, publishers = generator.generate(100)
        assert points.shape == (100, 4)
        assert publishers.shape == (100,)

    def test_publishers_from_allowed_set(self, small_topology):
        allowed = small_topology.all_stub_nodes()[:3]
        generator = PublicationGenerator(
            single_mode_distribution(), allowed, seed=5
        )
        _, publishers = generator.generate(200)
        assert set(publishers.tolist()) <= set(allowed)

    def test_deterministic(self, small_topology):
        nodes = small_topology.all_stub_nodes()
        a = PublicationGenerator(
            nine_mode_distribution(), nodes, seed=8
        ).generate(50)
        b = PublicationGenerator(
            nine_mode_distribution(), nodes, seed=8
        ).generate(50)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_empty_publisher_set_rejected(self):
        with pytest.raises(ValueError):
            PublicationGenerator(single_mode_distribution(), [])

    def test_negative_count_rejected(self, small_topology):
        generator = PublicationGenerator(
            single_mode_distribution(),
            small_topology.all_stub_nodes(),
        )
        with pytest.raises(ValueError):
            generator.generate(-1)

    def test_event_means_near_scenario_means(self, small_topology, rng):
        generator = PublicationGenerator(
            single_mode_distribution(),
            small_topology.all_stub_nodes(),
            seed=6,
        )
        points, _ = generator.generate(20_000)
        assert np.allclose(
            points.mean(axis=0), [1.0, 10.0, 9.0, 9.0], atol=0.2
        )
