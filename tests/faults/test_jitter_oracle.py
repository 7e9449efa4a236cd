"""Retry-timer jitter against numpy's own seeding, bit for bit.

``ReliableTransport._jitter(key, target, attempt)`` is the timer jitter
``np.random.default_rng((seed, key, target, attempt)).random() *
max_jitter``: every chaos digest hangs off those doubles.  The
reference below is that expression, kept verbatim.  Words are drawn
over the whole 32-bit range (both ends included), as numpy integers as
well as Python ints, and past 2**32, where one word becomes several
entropy words; negative words are refused on both sides.
"""

from __future__ import annotations

from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.faults import ReliableTransport, RetryConfig
from repro.network.routing import RoutingTable
from repro.simulation import DiscreteEventSimulator
from repro.simulation.packet_network import PacketNetwork

TOP = 2**32 - 1

GRAPH = nx.path_graph(3)
nx.set_edge_attributes(GRAPH, 1.0, "cost")
ROUTING = RoutingTable(GRAPH)


def transport(seed, max_jitter):
    network = PacketNetwork(
        SimpleNamespace(graph=GRAPH), DiscreteEventSimulator(), routing=ROUTING
    )
    return ReliableTransport(
        network, config=RetryConfig(max_jitter=max_jitter), seed=seed
    )


def reference(seed, key, target, attempt, max_jitter):
    rng = np.random.default_rng((seed, key, target, attempt))
    return float(rng.random() * max_jitter)


words32 = st.integers(0, TOP) | st.sampled_from([0, 1, TOP, TOP - 1, 2**31])
numpy_words = st.tuples(
    words32, st.sampled_from([np.uint32, np.int64, np.uint64])
).map(lambda pair: pair[1](pair[0]))
wide_words = st.integers(TOP + 1, 2**96)
jitters = st.sampled_from([1.0, 0.5, 3.25]) | st.floats(1e-6, 1e6)


class TestJitterOracle:
    @given(words32, words32, words32, words32, jitters)
    @example(0, 0, 0, 0, 1.0)
    @example(TOP, TOP, TOP, TOP, 1.0)
    @example(2003, 2_003_001, 571, 6, 1.0)
    def test_32_bit_words(self, seed, key, target, attempt, max_jitter):
        got = transport(seed, max_jitter)._jitter(key, target, attempt)
        assert type(got) is float
        assert got == reference(seed, key, target, attempt, max_jitter)

    @given(words32, numpy_words, numpy_words, numpy_words, jitters)
    @example(TOP, np.uint32(TOP), np.uint64(TOP), np.int64(TOP), 1.0)
    def test_numpy_integer_words(self, seed, key, target, attempt, max_jitter):
        got = transport(seed, max_jitter)._jitter(key, target, attempt)
        assert type(got) is float
        assert got == reference(seed, key, target, attempt, max_jitter)

    @given(
        st.lists(words32, min_size=4, max_size=4),
        st.lists(wide_words, min_size=1, max_size=4),
        st.randoms(use_true_random=False),
    )
    def test_words_past_32_bits(self, narrow, wide, random):
        words = narrow[: 4 - len(wide)] + wide
        random.shuffle(words)
        seed, key, target, attempt = words
        got = transport(seed, 1.0)._jitter(key, target, attempt)
        assert got == reference(seed, key, target, attempt, 1.0)

    @pytest.mark.parametrize("position", range(1, 4))
    def test_a_negative_word_is_refused(self, position):
        words = [7, 8, 9, 10]
        words[position] = -1
        with pytest.raises(ValueError):
            reference(*words, 1.0)
        with pytest.raises(ValueError):
            transport(7, 1.0)._jitter(*words[1:])

    def test_no_jitter_is_zero(self):
        assert transport(5, 0.0)._jitter(1, 2, 3) == 0.0
