"""Histogram and ranking series for the data-study figures.

Produces the numeric series behind Figures 4 and 5 of the paper —
density histograms of normalized prices, rank-frequency (Zipf) plots
of stock popularity, and survival curves of trade amounts — as plain
arrays any plotting or reporting layer can consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["HistogramSeries", "density_histogram", "rank_frequency", "survival_curve"]


@dataclass(frozen=True)
class HistogramSeries:
    """A binned density estimate."""

    centers: np.ndarray
    density: np.ndarray
    bin_width: float

    @property
    def mode_center(self) -> float:
        """Center of the highest-density bin."""
        return float(self.centers[int(np.argmax(self.density))])


def density_histogram(
    data: np.ndarray,
    bins: int = 50,
    value_range: Optional[Tuple[float, float]] = None,
) -> HistogramSeries:
    """Equal-width density histogram of a sample."""
    data = np.asarray(data, dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot histogram an empty sample")
    counts, edges = np.histogram(
        data, bins=bins, range=value_range, density=True
    )
    centers = (edges[:-1] + edges[1:]) / 2.0
    return HistogramSeries(
        centers=centers,
        density=counts,
        bin_width=float(edges[1] - edges[0]),
    )


def rank_frequency(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rank-frequency series: ranks ``1..m`` and sorted-desc counts.

    Zero counts are dropped (they would break the log-log fit and the
    paper's plot only shows traded stocks).
    """
    counts = np.asarray(counts, dtype=np.float64)
    nonzero = np.sort(counts[counts > 0])[::-1]
    if nonzero.size == 0:
        raise ValueError("no positive counts to rank")
    ranks = np.arange(1, nonzero.size + 1, dtype=np.float64)
    return ranks, nonzero


def survival_curve(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical ``P(X > x)`` on a 100-point log-spaced grid.

    Heavy-tailed samples (trade amounts) show up as a straight line in
    log-log coordinates with slope ``-alpha``.
    """
    data = np.asarray(data, dtype=np.float64)
    positive = data[data > 0]
    if positive.size == 0:
        raise ValueError("need positive data for a survival curve")
    sorted_data = np.sort(positive)
    xs = np.logspace(
        np.log10(sorted_data[0]),
        np.log10(sorted_data[-1]),
        100,
    )
    survival = 1.0 - np.searchsorted(sorted_data, xs, side="right") / len(
        sorted_data
    )
    return xs, survival
