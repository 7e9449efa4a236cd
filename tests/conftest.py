"""Shared fixtures: small seeded testbeds reused across the suite.

Also installs a per-test timeout guard (SIGALRM-based, POSIX only, no
third-party plugin needed): any single test that runs longer than
``REPRO_TEST_TIMEOUT`` seconds (default 120) fails with a clear
message instead of hanging the suite — chaos and overload scenarios
are event-driven loops, and a regression there would otherwise stall
CI until the job-level timeout.

Hypothesis profiles: ``small`` (loaded here) is derandomized, so every
run draws the same examples, and keeps ``max_examples`` low for the
property tests that leave it to the profile; ``pytest
--hypothesis-profile ci`` runs those at 500 examples, with fresh draws.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest
from hypothesis import settings

from repro.core import SubscriptionTable
from repro.network import DeliveryCostModel, TransitStubGenerator, TransitStubParams
from repro.workload import (
    PublicationGenerator,
    StockSubscriptionGenerator,
    publication_distribution,
)

settings.register_profile(
    "small", max_examples=50, derandomize=True, deadline=None
)
settings.register_profile("ci", max_examples=500, deadline=None)
settings.load_profile("small")

_TEST_TIMEOUT = int(os.environ.get("REPRO_TEST_TIMEOUT", "120"))
_HAS_ALARM = hasattr(signal, "SIGALRM")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not _HAS_ALARM or _TEST_TIMEOUT <= 0:
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {_TEST_TIMEOUT}s per-test timeout "
            "(set REPRO_TEST_TIMEOUT to adjust, 0 to disable)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(_TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def small_topology():
    """A compact transit-stub network (~60 nodes) for fast tests."""
    params = TransitStubParams(
        transit_blocks=3,
        transit_nodes_per_block=2,
        stubs_per_transit_node=1,
        nodes_per_stub=8,
        size_spread=1,
    )
    return TransitStubGenerator(params, seed=11).generate()


@pytest.fixture(scope="session")
def paper_topology():
    """The paper-scale ~600-node network (session-cached)."""
    return TransitStubGenerator(seed=600).generate()


@pytest.fixture(scope="session")
def small_placed(small_topology):
    """150 placed stock subscriptions on the small network."""
    return StockSubscriptionGenerator(small_topology, seed=12).generate(150)


@pytest.fixture(scope="session")
def small_table(small_placed):
    return SubscriptionTable.from_placed(small_placed)


@pytest.fixture(scope="session")
def nine_mode_density():
    return publication_distribution(9)


@pytest.fixture(scope="session")
def small_events(small_topology, nine_mode_density):
    """200 publications on the small network."""
    generator = PublicationGenerator(
        nine_mode_density, small_topology.all_stub_nodes(), seed=13
    )
    return generator.generate(200)


@pytest.fixture(scope="session")
def small_cost_model(small_topology):
    return DeliveryCostModel(small_topology)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
