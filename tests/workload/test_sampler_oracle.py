"""The workload's categorical draws against ``Generator.choice``.

Every categorical draw of the subscription workload — a Zipf rank, a
transit block, a ``bst`` symbol — is ``Generator.choice(n, p=...)``'s
algorithm: the CDF ``p.cumsum() / cdf[-1]`` and one uniform per draw,
placed with a right-sided search.  Each test runs the library on one
generator and ``choice`` on a twin seeded the same, and asks for the
same values draw for draw and the same generator state afterwards, so
a draw that consumed one uniform more or less would show at once.

The whole generator is pinned too: a BLAKE2b digest over every field
of ``StockSubscriptionGenerator(topology, seed).generate(n)``, read off
the ``choice``-based generator.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workload import (
    StockSubscriptionGenerator,
    SubscriberPlacement,
    ZipfSampler,
    zipf_weights,
)
from repro.workload.zipf import CategoricalSampler


def twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


#: Probability vectors with zero ranks anywhere (first, inside, last),
#: normalised the way the workload normalises its shares.
weights = st.lists(
    st.one_of(st.just(0.0), st.floats(0.01, 10.0)), min_size=1, max_size=12
).filter(any).map(lambda w: np.asarray(w) / sum(w))


class TestCategoricalSamplerAgainstChoice:
    @given(p=weights, seed=st.integers(0, 2**32 - 1))
    def test_scalar_draws(self, p, seed):
        mine, reference = twins(seed)
        sampler = CategoricalSampler(p, mine)
        drawn = [sampler.sample() for _ in range(60)]
        assert drawn == [reference.choice(len(p), p=p) for _ in range(60)]
        assert all(p[rank] > 0 for rank in drawn)
        assert same_state(mine, reference)

    @given(
        p=weights,
        sizes=st.lists(st.integers(0, 300), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sized_draws(self, p, sizes, seed):
        mine, reference = twins(seed)
        sampler = CategoricalSampler(p, mine)
        for size in sizes:
            drawn = sampler.sample(size)
            expected = reference.choice(len(p), size=size, p=p)
            assert drawn.dtype == expected.dtype
            assert drawn.tolist() == expected.tolist()
        assert same_state(mine, reference)


class TestZipfSamplerAgainstChoice:
    @given(
        n=st.integers(1, 60),
        theta=st.sampled_from([0.0, 0.5, 1.0, 1.7, 4.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scalar_draws(self, n, theta, seed):
        mine, reference = twins(seed)
        sampler = ZipfSampler(n, theta, mine)
        p = zipf_weights(n, theta)
        for _ in range(40):
            drawn = sampler.sample()
            assert drawn == reference.choice(n, p=p)
            assert isinstance(drawn, int)
        assert same_state(mine, reference)

    @given(
        n=st.integers(1, 60),
        theta=st.sampled_from([0.0, 0.5, 1.0, 1.7, 4.0]),
        sizes=st.lists(st.integers(0, 300), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sized_draws(self, n, theta, sizes, seed):
        mine, reference = twins(seed)
        sampler = ZipfSampler(n, theta, mine)
        p = zipf_weights(n, theta)
        for size in sizes:
            drawn = sampler.sample(size)
            expected = reference.choice(n, size=size, p=p)
            assert drawn.dtype == expected.dtype
            assert drawn.tolist() == expected.tolist()
        assert same_state(mine, reference)

    def test_theta_zero_is_choice_over_a_uniform_p(self):
        mine, reference = twins(5)
        sampler = ZipfSampler(7, 0.0, mine)
        drawn = [sampler.sample() for _ in range(500)]
        assert drawn == [
            reference.choice(7, p=np.full(7, 1 / 7)) for _ in range(500)
        ]


def reference_placement(topology, shares, theta, rng):
    """``SubscriberPlacement`` as written with ``Generator.choice``:
    the constructor's two rounds of permutations, then a generator of
    ``(block, stub, node)`` draws."""
    shares = np.asarray(shares, dtype=np.float64)
    shares = np.pad(shares, (0, topology.num_blocks - len(shares)))
    blocks = shares / shares.sum()
    stub_orders = [
        [int(s) for s in rng.permutation(topology.stubs_in_block(b))]
        for b in range(topology.num_blocks)
    ]
    node_orders = [
        [int(n) for n in rng.permutation(members)]
        for members in topology.stub_members
    ]
    while True:
        block = rng.choice(topology.num_blocks, p=blocks)
        stubs = stub_orders[block]
        stub = stubs[rng.choice(len(stubs), p=zipf_weights(len(stubs), theta))]
        nodes = node_orders[stub]
        node = nodes[rng.choice(len(nodes), p=zipf_weights(len(nodes), theta))]
        yield block, stub, node


class TestPlacementAgainstChoice:
    @pytest.mark.parametrize(
        "shares, theta",
        [
            ((0.4, 0.3, 0.3), 1.0),
            # A block of zero probability: its rank is never drawn, and
            # the block after it is still found.
            ((0.5, 0.0, 0.5), 1.0),
            ((0.0, 1.0), 1.0),
            ((1.0,), 0.0),
            ((0.2, 0.0, 0.8), 0.0),
        ],
    )
    def test_draws(self, paper_topology, shares, theta):
        mine, reference = twins(17)
        placement = SubscriberPlacement(
            paper_topology, block_shares=shares, zipf_theta=theta, rng=mine
        )
        expected = reference_placement(paper_topology, shares, theta, reference)
        drawn = [placement.place_one() for _ in range(2000)]
        assert drawn == [next(expected) for _ in drawn]
        assert same_state(mine, reference)
        zero = [b for b, share in enumerate(shares) if share == 0.0]
        assert not {b for b, _, _ in drawn} & set(zero)


# -- the whole generator, pinned ----------------------------------------------

#: BLAKE2b (16 bytes) over the ``repr`` of every generated subscription's
#: ``(subscription_id, node, block, stub, lows, highs)``, on the
#: seed-600 paper topology (``paper_topology``), read off the ``choice``-based generator.
PINNED = {
    (2003, 300): "f753fb727911e32038dd566d941bc250",
    (2003, 1000): "2a176dd5e1437a2b8c2a3fc29ba84774",
    (2003, 8000): "b051d65bb9628acc02cc6fe8cf5555b9",
    (7, 300): "6410198bda5ee71a9b5913bb57250b2a",
    (7, 1000): "7625a50540978ff8b433e49ac5971d3c",
    (7, 8000): "8adab4806ba8c0d0161bd3743b48f412",
}


def digest_of(placed):
    h = hashlib.blake2b(digest_size=16)
    for s in placed:
        row = (
            s.subscription_id,
            s.node,
            s.block,
            s.stub,
            s.rectangle.lows,
            s.rectangle.highs,
        )
        h.update(repr(row).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed, count", sorted(PINNED))
def test_generated_subscriptions_are_the_pinned_ones(
    paper_topology, seed, count
):
    placed = StockSubscriptionGenerator(paper_topology, seed=seed).generate(
        count
    )
    assert digest_of(placed) == PINNED[seed, count]
