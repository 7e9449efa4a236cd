"""Figure 5 — the three most frequently traded stocks.

Per-stock drill-down of the data study: for each of the top-``k``
stocks by trade count, the normalized price distribution (bell shaped
around the mean) and the trade-amount tail (approximately Pareto).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.distributions import (
    NormalFit,
    PowerLawFit,
    fit_normal,
    fit_pareto_tail,
)
from ..analysis.histograms import HistogramSeries, density_histogram
from ..workload.stock import StockMarketModel
from .config import ExperimentConfig

__all__ = ["StockPanel", "run_figure5"]


@dataclass(frozen=True)
class StockPanel:
    """One stock's pair of panels."""

    stock: int
    num_trades: int
    price_histogram: HistogramSeries
    price_fit: NormalFit
    amount_fit: PowerLawFit


def run_figure5(
    config: ExperimentConfig, top_k: int = 3
) -> List[StockPanel]:
    """Analyze the ``top_k`` most-traded stocks of a trading day."""
    if top_k < 1:
        raise ValueError("top_k must be positive")
    day = StockMarketModel(seed=config.seed + 4).generate_day()
    panels: List[StockPanel] = []
    for stock in day.top_stocks(top_k):
        prices, amounts = day.trades_of(int(stock))
        panels.append(
            StockPanel(
                stock=int(stock),
                num_trades=len(prices),
                price_histogram=density_histogram(prices, bins=40),
                price_fit=fit_normal(prices),
                amount_fit=fit_pareto_tail(amounts),
            )
        )
    return panels
