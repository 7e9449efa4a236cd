"""Subscription workload generation (paper Section 5).

Generated subscriptions take the form ``{bst, name, quote, volume}``:

- ``bst`` selects B / S / T with probabilities 0.4 / 0.4 / 0.2;
- the ``name`` interval's center is normal around a per-transit-block
  anchor (3, 10 and 17 for the three blocks) with standard deviation 4,
  and its length follows a Zipf-like distribution;
- the ``quote`` (price) and ``volume`` intervals follow the paper's
  four-branch parametric distribution::

      *                    with probability q0            (wildcard)
      [n, +inf),  n~N(mu1, sigma1)   with probability q1
      (-inf, n],  n~N(mu2, sigma2)   with probability q2
      [n1, n2]    otherwise: center ~ N(mu3, sigma3),
                  length ~ Pareto(c, alpha)

  with the parameter table::

              q0    q1   q2   mu1,s1  mu2,s2  mu3,s3  c,alpha
      price   0.15  0.1  0.1  9, 1    9, 1    9, 2    4, 1
      volume  0.35  0.1  0.1  9, 1    9, 1    9, 2    4, 1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..geometry.interval import FULL_LINE, Interval
from ..geometry.rectangle import Rectangle
from ..network.topology import Topology
from .pareto import ParetoSampler
from .placement import SubscriberPlacement
from .schema import BST_PROBABILITIES, bst_interval
from .zipf import CategoricalSampler, ZipfSampler

__all__ = [
    "IntervalDistributionParams",
    "PRICE_PARAMS",
    "VOLUME_PARAMS",
    "NAME_PARAMS",
    "NameFieldParams",
    "PlacedSubscription",
    "StockSubscriptionGenerator",
]


@dataclass(frozen=True)
class IntervalDistributionParams:
    """Parameters of the paper's four-branch interval distribution."""

    q0: float  # wildcard probability
    q1: float  # lower-bounded-ray probability
    q2: float  # upper-bounded-ray probability
    mu1: float
    sigma1: float
    mu2: float
    sigma2: float
    mu3: float
    sigma3: float
    pareto_c: float
    pareto_alpha: float

    def __post_init__(self) -> None:
        for name in ("q0", "q1", "q2"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.q0 + self.q1 + self.q2 > 1.0 + 1e-12:
            raise ValueError("q0 + q1 + q2 must not exceed 1")
        if self.sigma1 <= 0 or self.sigma2 <= 0 or self.sigma3 <= 0:
            raise ValueError("standard deviations must be positive")

    @property
    def bounded_probability(self) -> float:
        """Probability of the bounded ``[n1, n2]`` branch."""
        return 1.0 - self.q0 - self.q1 - self.q2


#: Paper parameter table, "price" row.
PRICE_PARAMS = IntervalDistributionParams(
    q0=0.15, q1=0.1, q2=0.1,
    mu1=9.0, sigma1=1.0,
    mu2=9.0, sigma2=1.0,
    mu3=9.0, sigma3=2.0,
    pareto_c=4.0, pareto_alpha=1.0,
)

#: Paper parameter table, "volume" row.
VOLUME_PARAMS = IntervalDistributionParams(
    q0=0.35, q1=0.1, q2=0.1,
    mu1=9.0, sigma1=1.0,
    mu2=9.0, sigma2=1.0,
    mu3=9.0, sigma3=2.0,
    pareto_c=4.0, pareto_alpha=1.0,
)


@dataclass(frozen=True)
class NameFieldParams:
    """Distribution of the ``name`` interval.

    ``block_centers`` anchor interest per transit block ("mean centered
    around the points specific to transit block number (3, 10 and
    17)"); blocks beyond the list reuse the last anchor.
    """

    block_centers: tuple[float, ...] = (3.0, 10.0, 17.0)
    center_sigma: float = 4.0
    max_length: int = 8
    length_theta: float = 1.0

    def center_for_block(self, block: int) -> float:
        if block < len(self.block_centers):
            return self.block_centers[block]
        return self.block_centers[-1]


NAME_PARAMS = NameFieldParams()


@dataclass(frozen=True)
class PlacedSubscription:
    """One generated subscription, bound to its subscriber node."""

    subscription_id: int
    node: int
    block: int
    stub: int
    rectangle: Rectangle

    @property
    def subscriber(self) -> int:
        """Alias: the subscriber is identified by its network node."""
        return self.node


class StockSubscriptionGenerator:
    """Generates placed stock subscriptions per the paper's recipe."""

    def __init__(
        self,
        topology: Topology,
        pareto_cap: Optional[float] = 100.0,
        seed: Optional[int] = None,
    ):
        self._rng = np.random.default_rng(seed)
        self.topology = topology
        self.placement = SubscriberPlacement(topology, rng=self._rng)
        self._price_length = ParetoSampler(
            PRICE_PARAMS.pareto_c,
            PRICE_PARAMS.pareto_alpha,
            cap=pareto_cap,
            rng=self._rng,
        )
        self._volume_length = ParetoSampler(
            VOLUME_PARAMS.pareto_c,
            VOLUME_PARAMS.pareto_alpha,
            cap=pareto_cap,
            rng=self._rng,
        )
        self._name_length = ZipfSampler(
            NAME_PARAMS.max_length, NAME_PARAMS.length_theta, self._rng
        )
        self._bst_symbols = sorted(BST_PROBABILITIES)
        self._bst = CategoricalSampler(
            [BST_PROBABILITIES[s] for s in self._bst_symbols], self._rng
        )

    # -- per-field draws -----------------------------------------------------

    def _draw_bst(self) -> Interval:
        return bst_interval(self._bst_symbols[self._bst.sample()])

    def _draw_name(self, block: int) -> Interval:
        center = self._rng.normal(
            NAME_PARAMS.center_for_block(block), NAME_PARAMS.center_sigma
        )
        # Zipf ranks are zero-based; length ranks 1..max_length.
        length = float(self._name_length.sample()) + 1.0
        return Interval(center - length / 2.0, center + length / 2.0)

    def _draw_parametric(
        self, params: IntervalDistributionParams, length_sampler: ParetoSampler
    ) -> Interval:
        u = self._rng.random()
        if u < params.q0:
            return FULL_LINE
        if u < params.q0 + params.q1:
            n = self._rng.normal(params.mu1, params.sigma1)
            return Interval(n, np.inf)
        if u < params.q0 + params.q1 + params.q2:
            n = self._rng.normal(params.mu2, params.sigma2)
            return Interval(-np.inf, n)
        center = self._rng.normal(params.mu3, params.sigma3)
        length = float(length_sampler.sample())
        return Interval(center - length / 2.0, center + length / 2.0)

    # -- public API ------------------------------------------------------------

    def generate_one(self, subscription_id: int) -> PlacedSubscription:
        """Generate and place a single subscription."""
        block, stub, node = self.placement.place_one()
        rectangle = Rectangle.from_intervals(
            [
                self._draw_bst(),
                self._draw_name(block),
                self._draw_parametric(PRICE_PARAMS, self._price_length),
                self._draw_parametric(VOLUME_PARAMS, self._volume_length),
            ]
        )
        return PlacedSubscription(
            subscription_id=subscription_id,
            node=node,
            block=block,
            stub=stub,
            rectangle=rectangle,
        )

    def generate(self, count: int) -> List[PlacedSubscription]:
        """Generate ``count`` placed subscriptions (paper uses 1000)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.generate_one(i) for i in range(count)]
