"""Unit tests for subscription placement."""

import numpy as np
import pytest

from repro.workload import SubscriberPlacement


class TestPlacement:
    def test_placements_are_consistent(self, paper_topology, rng):
        placement = SubscriberPlacement(paper_topology, rng=rng)
        for _ in range(300):
            block, stub, node = placement.place_one()
            assert paper_topology.stub_block[stub] == block
            assert node in paper_topology.stub_members[stub]

    def test_block_shares_respected(self, paper_topology, rng):
        placement = SubscriberPlacement(
            paper_topology, block_shares=(0.8, 0.1, 0.1), rng=rng
        )
        blocks = np.bincount(
            [placement.place_one()[0] for _ in range(3000)], minlength=3
        ) / 3000
        assert blocks[0] == pytest.approx(0.8, abs=0.03)

    def test_zipf_concentration_within_blocks(self, paper_topology, rng):
        placement = SubscriberPlacement(paper_topology, rng=rng)
        placements = [placement.place_one() for _ in range(5000)]
        # Within each block, the busiest stub should clearly dominate
        # the least busy one (Zipf-like skew).
        for block in range(3):
            stubs = [s for b, s, _ in placements if b == block]
            counts = sorted(
                (stubs.count(s) for s in set(stubs)), reverse=True
            )
            assert counts[0] >= 2 * counts[-1]

    def test_zero_theta_roughly_uniform(self, paper_topology):
        placement = SubscriberPlacement(
            paper_topology,
            zipf_theta=0.0,
            rng=np.random.default_rng(3),
        )
        placements = [placement.place_one() for _ in range(5000)]
        block0 = [s for b, s, _ in placements if b == 0]
        counts = sorted(
            (block0.count(s) for s in set(block0)), reverse=True
        )
        assert counts[0] < 2 * counts[-1]

    def test_share_padding_for_extra_blocks(self, paper_topology):
        # Fewer shares than blocks: remaining blocks get zero weight.
        placement = SubscriberPlacement(
            paper_topology,
            block_shares=(1.0,),
            rng=np.random.default_rng(4),
        )
        blocks = {placement.place_one()[0] for _ in range(200)}
        assert blocks == {0}

    def test_share_truncation(self, paper_topology):
        placement = SubscriberPlacement(
            paper_topology,
            block_shares=(0.5, 0.3, 0.2, 0.9),
            rng=np.random.default_rng(4),
        )
        assert len(placement.block_probabilities) == 3
        assert placement.block_probabilities.sum() == pytest.approx(1.0)

    def test_invalid_shares(self, paper_topology):
        with pytest.raises(ValueError):
            SubscriberPlacement(paper_topology, block_shares=(-1.0, 2.0))
        with pytest.raises(ValueError):
            SubscriberPlacement(paper_topology, block_shares=(0.0, 0.0))
