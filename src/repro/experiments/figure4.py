"""Figure 4 — distributions of one day of stock trades.

Regenerates the three panels of the paper's data study over the
synthetic trading day:

- **(a)** normalized trade prices (price / opening price), which the
  paper approximates "reasonably closely by a normal distribution";
- **(b)** trades per stock against popularity rank — "approximately a
  Zipf-like distribution";
- **(c)** the trade-amount distribution — "can also be approximated by
  a Zipf-like distribution" (a heavy power-law tail).

The result carries both the raw series (for plotting) and fitted
parameters with goodness scores (for assertions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.distributions import (
    NormalFit,
    PowerLawFit,
    fit_normal,
    fit_pareto_tail,
    fit_zipf,
)
from ..analysis.histograms import (
    HistogramSeries,
    density_histogram,
    rank_frequency,
    survival_curve,
)
from ..workload.stock import StockMarketModel
from .config import ExperimentConfig

__all__ = ["Figure4Result", "run_figure4"]


@dataclass(frozen=True)
class Figure4Result:
    """The three panels plus their fits."""

    price_histogram: HistogramSeries          # panel (a) series
    price_fit: NormalFit                      # panel (a) fit
    popularity_ranks: np.ndarray              # panel (b) x
    popularity_counts: np.ndarray             # panel (b) y
    popularity_fit: PowerLawFit               # panel (b) fit
    amount_values: np.ndarray                 # panel (c) x (survival grid)
    amount_survival: np.ndarray               # panel (c) y
    amount_fit: PowerLawFit                   # panel (c) fit


def run_figure4(config: ExperimentConfig) -> Figure4Result:
    """Generate a trading day and analyze it."""
    day = StockMarketModel(seed=config.seed + 4).generate_day()

    prices = day.normalized_prices()
    price_histogram = density_histogram(prices, bins=60)
    price_fit = fit_normal(prices)

    ranks, counts = rank_frequency(day.trades_per_stock())
    popularity_fit = fit_zipf(counts)

    xs, survival = survival_curve(day.amount)
    amount_fit = fit_pareto_tail(day.amount)

    return Figure4Result(
        price_histogram=price_histogram,
        price_fit=price_fit,
        popularity_ranks=ranks,
        popularity_counts=counts,
        popularity_fit=popularity_fit,
        amount_values=xs,
        amount_survival=survival,
        amount_fit=amount_fit,
    )
