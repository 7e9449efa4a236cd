"""Unit tests for the synthetic trading day."""

import numpy as np
import pytest

from repro.workload import StockMarketModel, StockMarketParams


@pytest.fixture(scope="module")
def day():
    params = StockMarketParams(num_stocks=400, num_trades=40_000)
    return StockMarketModel(params, seed=77).generate_day()


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            StockMarketParams(num_stocks=0)
        with pytest.raises(ValueError):
            StockMarketParams(price_sigma=0.0)
        with pytest.raises(ValueError):
            StockMarketParams(
                opening_price_low=10.0, opening_price_high=5.0
            )


class TestTradingDay:
    def test_shapes(self, day):
        assert day.num_trades == 40_000
        assert day.num_stocks == 400
        assert day.price.shape == day.stock.shape == day.amount.shape

    def test_stocks_in_range(self, day):
        assert day.stock.min() >= 0
        assert day.stock.max() < day.num_stocks

    def test_prices_positive(self, day):
        assert day.price.min() > 0

    def test_normalized_prices_center_on_one(self, day):
        normalized = day.normalized_prices()
        assert normalized.mean() == pytest.approx(1.0, abs=0.005)
        assert normalized.std() == pytest.approx(0.012, abs=0.003)

    def test_trades_per_stock_sums(self, day):
        assert day.trades_per_stock().sum() == day.num_trades

    def test_popularity_is_skewed(self, day):
        ranking = np.sort(day.trades_per_stock())[::-1]
        # Zipf: the busiest stock roughly twice the second busiest.
        assert ranking[0] / ranking[1] == pytest.approx(2.0, rel=0.35)

    def test_top_stocks(self, day):
        top = day.top_stocks(3)
        counts = day.trades_per_stock()
        assert counts[top[0]] >= counts[top[1]] >= counts[top[2]]
        assert counts[top[0]] == counts.max()

    def test_trades_of_consistency(self, day):
        stock = int(day.top_stocks(1)[0])
        prices, amounts = day.trades_of(stock)
        assert len(prices) == day.trades_per_stock()[stock]
        assert len(prices) == len(amounts)
        assert prices.mean() == pytest.approx(1.0, abs=0.01)

    def test_amounts_heavy_tailed(self, day):
        # Pareto with alpha=1.2: mean far above the median.
        assert day.amount.mean() > 2 * np.median(day.amount)
        assert day.amount.min() >= StockMarketParams().amount_scale

    def test_deterministic(self):
        params = StockMarketParams(num_stocks=50, num_trades=500)
        a = StockMarketModel(params, seed=5).generate_day()
        b = StockMarketModel(params, seed=5).generate_day()
        assert np.array_equal(a.stock, b.stock)
        assert np.array_equal(a.price, b.price)
