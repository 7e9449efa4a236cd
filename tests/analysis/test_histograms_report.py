"""Unit tests for histogram series and text reporting."""

import numpy as np
import pytest

from repro.analysis import (
    density_histogram,
    format_table,
    rank_frequency,
    sparkline,
    survival_curve,
)


class TestDensityHistogram:
    def test_integrates_to_one(self, rng):
        series = density_histogram(rng.normal(size=10_000), bins=40)
        mass = series.density.sum() * series.bin_width
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_mode_near_distribution_mode(self, rng):
        series = density_histogram(rng.normal(7.0, 1.0, 50_000), bins=60)
        assert series.mode_center == pytest.approx(7.0, abs=0.3)

    def test_explicit_range(self, rng):
        series = density_histogram(
            rng.uniform(0, 1, 1000), bins=10, value_range=(0.0, 2.0)
        )
        assert series.centers[0] == pytest.approx(0.1)
        assert series.centers[-1] == pytest.approx(1.9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            density_histogram(np.array([]))


class TestRankFrequency:
    def test_sorted_descending(self, rng):
        counts = rng.integers(0, 100, size=50)
        ranks, sorted_counts = rank_frequency(counts)
        assert np.all(np.diff(sorted_counts) <= 0)
        assert ranks[0] == 1

    def test_zeros_dropped(self):
        ranks, counts = rank_frequency(np.array([5, 0, 3, 0]))
        assert len(counts) == 2

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            rank_frequency(np.zeros(5))


class TestSurvivalCurve:
    def test_monotone_decreasing(self, rng):
        xs, survival = survival_curve(rng.pareto(1.0, 10_000) + 1.0)
        assert np.all(np.diff(survival) <= 1e-12)

    def test_starts_near_one(self, rng):
        xs, survival = survival_curve(rng.uniform(1, 2, 10_000))
        assert survival[0] > 0.95

    def test_positive_data_required(self):
        with pytest.raises(ValueError):
            survival_curve(np.array([-1.0, -2.0]))


class TestFormatTable:
    def test_aligned_output(self):
        text = format_table(
            ("name", "value"), [("alpha", 1.5), ("b", 22)]
        )
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert len({len(line) for line in lines}) == 1  # aligned

    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [(1,)])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table((), [])

    def test_float_formatting(self):
        text = format_table(("x",), [(1.23456,)])
        assert "1.23" in text


class TestSparkline:
    def test_length_matches(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_series(self):
        line = sparkline([0, 1, 2, 3])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""
