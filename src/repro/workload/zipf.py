"""Zipf-like distributions over finite ranked sets.

The paper leans on Zipf-like laws in three places (all Section 5):
subscription counts across the stubs of a transit block, subscription
counts across the nodes of a stub, and the empirical popularity of
stocks in the NYSE data study (Figure 4(b), citing Knuth [9]).

A *Zipf-like* distribution over ranks ``1..n`` assigns
``P(rank = i) ∝ 1 / i**theta``; the classic Zipf law is ``theta = 1``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Sequence

import numpy as np

__all__ = ["zipf_weights", "CategoricalSampler", "ZipfSampler"]


def zipf_weights(n: int, theta: float = 1.0) -> np.ndarray:
    """Normalized Zipf-like probabilities for ranks ``1..n``."""
    if n < 1:
        raise ValueError("n must be positive")
    if theta < 0:
        raise ValueError("theta must be non-negative")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-theta)
    return weights / weights.sum()


class CategoricalSampler:
    """Draws indices ``0..n-1`` with fixed probabilities.

    ``Generator.choice(n, p=p)``'s own algorithm — the CDF
    ``p.cumsum() / cdf[-1]`` and one uniform per draw, placed by a
    right-sided search — with the CDF built once rather than on every
    call, so it consumes the same stream and returns the same values.
    """

    def __init__(
        self, probabilities: Sequence[float], rng: np.random.Generator
    ):
        self.probabilities = np.asarray(probabilities, dtype=np.float64)
        self.n = len(self.probabilities)
        self._rng = rng
        cdf = self.probabilities.cumsum()
        self._cdf = cdf / cdf[-1]
        # One draw bisects floats: cheaper than a numpy call.
        self._cdf_list = self._cdf.tolist()

    def sample(self, size: Optional[int] = None):
        """One index (``size=None``) or an array of indices."""
        if size is None:
            return bisect_right(self._cdf_list, self._rng.random())
        return self._cdf.searchsorted(self._rng.random(size), side="right")


class ZipfSampler(CategoricalSampler):
    """Draws ranks ``0..n-1`` with Zipf-like probabilities.

    Ranks are returned zero-based so they can index Python sequences
    directly; rank 0 is the most popular.
    """

    def __init__(
        self,
        n: int,
        theta: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ):
        # No ambient entropy: without an explicit generator the sampler
        # is seeded (deterministically) rather than drawn from the OS.
        super().__init__(
            zipf_weights(n, theta),
            rng if rng is not None else np.random.default_rng(0),
        )
        self.theta = theta
