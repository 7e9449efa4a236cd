"""Publication (event) workload generation (paper Section 5).

Publications are points in the 4-dimensional stock space, drawn from
mixtures of multivariate normal distributions; the mixture's peaks are
"hot spots where events are published more frequently".  The paper
studies one-, four- and nine-mode scenarios built from *independent*
per-dimension mixtures:

- **1 mode**: ``N(1,1), N(10,6), N(9,2), N(9,6)`` in the four dims.
- **4 modes** (2x2): dims 1 and 4 keep ``N(1,1)`` and ``N(9,6)``;
  dim 2 is ``N(12,3)`` or ``N(6,2)`` with probability 0.5 each; dim 3
  is ``N(4,2)`` or ``N(16,2)`` with probability 0.5 each.
- **9 modes** (3x3): dims 1 and 4 unchanged; the two middle dimensions
  become 3-component mixtures — ``0.3 N(4,3) + 0.4 N(11,3) +
  0.3 N(18,3)`` and ``0.3 N(4,3) + 0.4 N(9,3) + 0.3 N(16,3)``.

  (The paper's text here contains an evident typo: it describes
  3-component mixtures for "the third dimension" and "the fourth
  dimension" immediately after stating dims 1 and 4 are unchanged.
  Since the 4-mode case varies dims 2 and 3 and the mode count is a
  2-dimensional product — 2x2 = 4, 3x3 = 9 — we place the 3-component
  mixtures on dims 2 and 3.)

Because the per-dimension mixtures are independent, the probability a
publication lands in an axis-aligned cell factorizes into per-dimension
CDF differences — exactly the publication-density function ``p_p(.)``
the clustering framework needs (Appendix A.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

__all__ = [
    "GaussianMixture1D",
    "ProductMixtureDistribution",
    "single_mode_distribution",
    "four_mode_distribution",
    "nine_mode_distribution",
    "publication_distribution",
    "PublicationGenerator",
]


@dataclass(frozen=True)
class GaussianMixture1D:
    """A one-dimensional Gaussian mixture ``sum_i w_i N(mu_i, sigma_i)``."""

    weights: Tuple[float, ...]
    means: Tuple[float, ...]
    sigmas: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.weights) == len(self.means) == len(self.sigmas)):
            raise ValueError("weights, means and sigmas must align")
        if not self.weights:
            raise ValueError("mixture needs at least one component")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if any(s <= 0 for s in self.sigmas):
            raise ValueError("sigmas must be positive")

    @classmethod
    def single(cls, mean: float, sigma: float) -> GaussianMixture1D:
        return cls((1.0,), (mean,), (sigma,))

    @property
    def num_components(self) -> int:
        return len(self.weights)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` samples."""
        components = rng.choice(
            self.num_components, size=size, p=self.weights
        )
        means = np.asarray(self.means)[components]
        sigmas = np.asarray(self.sigmas)[components]
        return rng.normal(means, sigmas)

    def cdf(self, x: float) -> float:
        """Mixture CDF at ``x`` (handles ±inf)."""
        if np.isposinf(x):
            return 1.0
        if np.isneginf(x):
            return 0.0
        # What ``scipy.stats.norm.cdf`` computes, to the bit.
        return float(
            sum(
                w * ndtr((float(x) - m) / s)
                for w, m, s in zip(self.weights, self.means, self.sigmas)
            )
        )

    def pdf(self, x: float) -> float:
        """Mixture density at ``x``."""
        from scipy.stats import norm  # here: it costs ~35 MB resident

        return float(
            sum(
                w * norm.pdf(x, loc=m, scale=s)
                for w, m, s in zip(self.weights, self.means, self.sigmas)
            )
        )

    def interval_probability(self, lo: float, hi: float) -> float:
        """``P(lo < X <= hi)``."""
        if hi <= lo:
            return 0.0
        return max(0.0, self.cdf(hi) - self.cdf(lo))

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        """Vectorized mixture CDF (±inf handled)."""
        x = np.asarray(x, dtype=np.float64)
        result = np.zeros_like(x)
        finite = np.isfinite(x)
        for w, m, s in zip(self.weights, self.means, self.sigmas):
            result[finite] += w * ndtr((x[finite] - m) / s)
        result[np.isposinf(x)] = 1.0
        return result


@dataclass(frozen=True)
class ProductMixtureDistribution:
    """Independent per-dimension mixtures: the paper's event density.

    The number of *modes* of the joint density is the product of the
    per-dimension component counts.
    """

    dimensions: Tuple[GaussianMixture1D, ...]

    def __post_init__(self) -> None:
        if not self.dimensions:
            raise ValueError("need at least one dimension")

    @property
    def ndim(self) -> int:
        return len(self.dimensions)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw a ``(size, ndim)`` array of event points."""
        columns = [m.sample(rng, size) for m in self.dimensions]
        return np.column_stack(columns)

    def cell_probability(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> float:
        """Probability mass of the half-open box ``(lows, highs]``.

        This is the publication-density integral ``p_p(g)`` used by the
        expected-waste distance (Appendix A.2); independence makes it a
        product of per-dimension CDF differences.
        """
        if len(lows) != self.ndim or len(highs) != self.ndim:
            raise ValueError("bounds must have one value per dimension")
        mass = 1.0
        for mixture, lo, hi in zip(self.dimensions, lows, highs):
            mass *= mixture.interval_probability(float(lo), float(hi))
            if mass == 0.0:
                return 0.0
        return mass

    def pdf(self, point: Sequence[float]) -> float:
        """Joint density at a point."""
        if len(point) != self.ndim:
            raise ValueError("point must have one value per dimension")
        density = 1.0
        for mixture, x in zip(self.dimensions, point):
            density *= mixture.pdf(float(x))
        return density

    def per_dimension_masses(
        self, edges: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Per-dimension interval masses over grid edge arrays.

        ``edges[d]`` holds the ``C+1`` cell boundaries of dimension
        ``d``; the returned arrays hold the ``C`` interval masses.
        Because the joint density is a product over dimensions, a grid
        cell's probability is the product of its per-dimension masses —
        the fast path :class:`repro.clustering.grid.EventGrid` uses.
        """
        if len(edges) != self.ndim:
            raise ValueError("one edge array per dimension required")
        return [
            np.clip(np.diff(mixture.cdf_array(np.asarray(e))), 0.0, None)
            for mixture, e in zip(self.dimensions, edges)
        ]


def single_mode_distribution() -> ProductMixtureDistribution:
    """The paper's 1-mode scenario: N(1,1), N(10,6), N(9,2), N(9,6)."""
    return ProductMixtureDistribution(
        (
            GaussianMixture1D.single(1.0, 1.0),
            GaussianMixture1D.single(10.0, 6.0),
            GaussianMixture1D.single(9.0, 2.0),
            GaussianMixture1D.single(9.0, 6.0),
        )
    )


def four_mode_distribution() -> ProductMixtureDistribution:
    """The paper's 4-mode (2x2) scenario."""
    return ProductMixtureDistribution(
        (
            GaussianMixture1D.single(1.0, 1.0),
            GaussianMixture1D((0.5, 0.5), (12.0, 6.0), (3.0, 2.0)),
            GaussianMixture1D((0.5, 0.5), (4.0, 16.0), (2.0, 2.0)),
            GaussianMixture1D.single(9.0, 6.0),
        )
    )


def nine_mode_distribution() -> ProductMixtureDistribution:
    """The paper's 9-mode (3x3) scenario (typo resolved; see module doc)."""
    return ProductMixtureDistribution(
        (
            GaussianMixture1D.single(1.0, 1.0),
            GaussianMixture1D(
                (0.3, 0.4, 0.3), (4.0, 11.0, 18.0), (3.0, 3.0, 3.0)
            ),
            GaussianMixture1D(
                (0.3, 0.4, 0.3), (4.0, 9.0, 16.0), (3.0, 3.0, 3.0)
            ),
            GaussianMixture1D.single(9.0, 6.0),
        )
    )


def publication_distribution(modes: int) -> ProductMixtureDistribution:
    """Look up one of the paper's three scenarios by mode count."""
    factories = {
        1: single_mode_distribution,
        4: four_mode_distribution,
        9: nine_mode_distribution,
    }
    try:
        return factories[modes]()
    except KeyError:
        raise ValueError(
            f"the paper studies 1, 4 and 9 modes; got {modes}"
        ) from None


class PublicationGenerator:
    """Draws publication events and assigns publisher nodes.

    The paper does not pin publishers to specific nodes; by default
    each event is published from a uniformly random stub node of the
    topology (pass ``publisher_nodes`` to restrict this, e.g. to model
    a small dedicated publisher set ``V_P``).
    """

    def __init__(
        self,
        distribution: ProductMixtureDistribution,
        publisher_nodes: Sequence[int],
        seed: Optional[int] = None,
    ):
        if len(publisher_nodes) == 0:
            raise ValueError("need at least one publisher node")
        self.distribution = distribution
        self.publisher_nodes = [int(n) for n in publisher_nodes]
        self._rng = np.random.default_rng(seed)

    def generate(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(points, publishers)``.

        ``points`` is a ``(count, N)`` float array of events;
        ``publishers`` the corresponding ``(count,)`` node ids.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        points = self.distribution.sample(self._rng, count)
        publishers = self._rng.choice(self.publisher_nodes, size=count)
        return points, publishers.astype(np.int64)
