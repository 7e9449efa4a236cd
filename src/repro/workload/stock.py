"""Synthetic stock-trading day: the NYSE data-study substitute.

The paper's Section 5.1 analyzes one day of (proprietary) New York
Stock Exchange trades — 1999-09-24 — and extracts three empirical
facts used to justify the experiment's workload distributions:

- normalized trade prices (price / opening price) are approximately
  normal (Figure 4(a), and per-stock in Figure 5);
- stock popularity (trades per stock, rank ordered) is approximately
  Zipf-like (Figure 4(b));
- trade dollar amounts are heavy tailed — Zipf/Pareto-like
  (Figure 4(c), and per-stock in Figure 5).

We cannot ship the NYSE tape, so this module generates a synthetic
trading day *from* those three laws; the analysis pipeline in
:mod:`repro.analysis` then recovers them, regenerating the shapes of
Figures 4 and 5.  The substitution is faithful because the paper uses
the data study only as motivation for the workload generators — no
algorithm consumes the raw tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .pareto import ParetoSampler
from .zipf import ZipfSampler

__all__ = ["StockMarketParams", "TradingDay", "StockMarketModel"]


@dataclass(frozen=True)
class StockMarketParams:
    """Shape parameters of the synthetic trading day.

    Defaults give an NYSE-like day: a few thousand listed stocks,
    Zipf-distributed trading activity, ~1% intraday price dispersion
    and Pareto trade sizes.
    """

    num_stocks: int = 3000
    num_trades: int = 200_000
    popularity_theta: float = 1.0
    price_sigma: float = 0.012
    opening_price_low: float = 5.0
    opening_price_high: float = 150.0
    amount_scale: float = 1_000.0
    amount_alpha: float = 1.2

    def __post_init__(self) -> None:
        if self.num_stocks < 1 or self.num_trades < 1:
            raise ValueError("need at least one stock and one trade")
        if self.price_sigma <= 0:
            raise ValueError("price_sigma must be positive")
        if not 0 < self.opening_price_low < self.opening_price_high:
            raise ValueError("opening price range must be positive and ordered")


@dataclass
class TradingDay:
    """Column-oriented record of one synthetic trading day."""

    stock: np.ndarray  # (trades,) int — stock index per trade
    price: np.ndarray  # (trades,) float — executed price
    amount: np.ndarray  # (trades,) float — dollar amount of the trade
    opening_price: np.ndarray  # (num_stocks,) float

    @property
    def num_trades(self) -> int:
        return len(self.stock)

    @property
    def num_stocks(self) -> int:
        return len(self.opening_price)

    def normalized_prices(self) -> np.ndarray:
        """Each trade's price divided by its stock's opening price.

        This is the §5.1 normalization behind Figure 4(a).
        """
        return self.price / self.opening_price[self.stock]

    def trades_per_stock(self) -> np.ndarray:
        """Trade count per stock (unsorted)."""
        return np.bincount(self.stock, minlength=self.num_stocks)

    def top_stocks(self, k: int) -> np.ndarray:
        """Indices of the ``k`` most-traded stocks (Figure 5 uses k=3)."""
        counts = self.trades_per_stock()
        return np.argsort(counts)[::-1][:k]

    def trades_of(self, stock: int) -> tuple[np.ndarray, np.ndarray]:
        """``(normalized prices, amounts)`` of one stock's trades."""
        mask = self.stock == stock
        return (
            self.price[mask] / self.opening_price[stock],
            self.amount[mask],
        )


class StockMarketModel:
    """Generates :class:`TradingDay` instances."""

    def __init__(
        self,
        params: Optional[StockMarketParams] = None,
        seed: Optional[int] = None,
    ):
        self.params = params or StockMarketParams()
        self._rng = np.random.default_rng(seed)

    def generate_day(self) -> TradingDay:
        """Simulate one full trading day."""
        p = self.params
        rng = self._rng
        opening = rng.uniform(
            p.opening_price_low, p.opening_price_high, size=p.num_stocks
        )
        popularity = ZipfSampler(p.num_stocks, p.popularity_theta, rng)
        # Random popularity order so stock index carries no signal.
        identity = rng.permutation(p.num_stocks)
        ranks = popularity.sample(p.num_trades)
        stocks = identity[ranks].astype(np.int64)
        # Intraday price: multiplicative normal noise around the open.
        ratio = rng.normal(1.0, p.price_sigma, size=p.num_trades)
        prices = opening[stocks] * np.maximum(ratio, 0.01)
        amounts = ParetoSampler(
            p.amount_scale, p.amount_alpha, rng=rng
        ).sample(p.num_trades)
        return TradingDay(
            stock=stocks,
            price=prices,
            amount=np.asarray(amounts),
            opening_price=opening,
        )
