"""Placement of subscriptions onto network nodes.

Section 5 of the paper distributes 1000 subscriptions over the 600-node
topology in three stages:

1. a fixed ``{40%, 30%, 30%}`` split across the three transit blocks,
2. within each block, a Zipf-like distribution across its stubs,
3. within each stub, another (common) Zipf-like distribution across
   the stub's nodes.

This module reproduces that exact scheme for arbitrary transit-stub
topologies (blocks beyond the configured shares, if any, get weight 0).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..network.topology import Topology
from .zipf import CategoricalSampler, ZipfSampler

__all__ = ["SubscriberPlacement", "DEFAULT_BLOCK_SHARES"]

#: Paper Section 5: "{40%, 30%, 30%} breakdown for the three transit blocks".
DEFAULT_BLOCK_SHARES = (0.4, 0.3, 0.3)


class SubscriberPlacement:
    """Assigns each new subscription to a stub node of the topology."""

    def __init__(
        self,
        topology: Topology,
        block_shares: Sequence[float] = DEFAULT_BLOCK_SHARES,
        zipf_theta: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ):
        self.topology = topology
        # No ambient entropy: without an explicit generator the sampler
        # is seeded (deterministically) rather than drawn from the OS.
        self._rng = rng if rng is not None else np.random.default_rng(0)

        shares = np.asarray(block_shares, dtype=np.float64)
        if np.any(shares < 0) or shares.sum() <= 0:
            raise ValueError("block shares must be non-negative, not all zero")
        if len(shares) < topology.num_blocks:
            shares = np.pad(shares, (0, topology.num_blocks - len(shares)))
        elif len(shares) > topology.num_blocks:
            shares = shares[: topology.num_blocks]
            if shares.sum() <= 0:
                raise ValueError(
                    "block shares for the available blocks sum to zero"
                )
        self.block_probabilities = shares / shares.sum()
        self._block_sampler = CategoricalSampler(
            self.block_probabilities, self._rng
        )

        # One Zipf sampler per block over that block's stubs; the stub
        # order is randomly permuted once so "popularity" is not tied to
        # stub index.
        self._block_stub_choices: List[List[int]] = []
        self._block_stub_samplers: List[ZipfSampler] = []
        for block in range(topology.num_blocks):
            stubs = topology.stubs_in_block(block)
            if not stubs:
                raise ValueError(f"transit block {block} has no stubs")
            order = list(self._rng.permutation(stubs))
            self._block_stub_choices.append([int(s) for s in order])
            self._block_stub_samplers.append(
                ZipfSampler(len(stubs), zipf_theta, self._rng)
            )

        # A common Zipf shape across nodes of every stub (the paper
        # says the within-stub distribution is common), but again with
        # per-stub random popularity order.
        self._stub_node_choices: List[List[int]] = []
        self._stub_node_samplers: List[ZipfSampler] = []
        for members in topology.stub_members:
            order = list(self._rng.permutation(members))
            self._stub_node_choices.append([int(n) for n in order])
            self._stub_node_samplers.append(
                ZipfSampler(len(members), zipf_theta, self._rng)
            )

    def place_one(self) -> tuple[int, int, int]:
        """Draw ``(block, stub, node)`` for one subscription."""
        block = self._block_sampler.sample()
        stub = self._block_stub_choices[block][
            self._block_stub_samplers[block].sample()
        ]
        node = self._stub_node_choices[stub][
            self._stub_node_samplers[stub].sample()
        ]
        return block, stub, node
