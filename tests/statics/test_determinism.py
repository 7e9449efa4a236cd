"""DET-rule payoff: same seed, byte-identical chaos statistics.

The DET01/DET02 lint rules exist so this property can never silently
regress: two chaos runs built from the same seed must produce the
same report down to the last byte of its JSON encoding — no wall
clock, no ambient entropy, no hash-order wobble anywhere in the
pipeline.  The workload samplers' no-argument fallback (the one
DET02 finding this PR fixed) is pinned separately.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import ThresholdPolicy
from repro.faults import ChaosSimulation
from repro.faults.verifier import build_chaos_plan, build_chaos_testbed
from repro.workload import (
    PublicationGenerator,
    SubscriberPlacement,
    ZipfSampler,
)
from repro.workload.pareto import ParetoSampler


def chaos_stats_json(seed):
    """One small chaos run, encoded as canonical JSON."""
    broker, density = build_chaos_testbed(seed=seed, subscriptions=120)
    broker = broker.with_policy(ThresholdPolicy(0.15))
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=seed + 9
    ).generate(80)
    plan = build_chaos_plan(
        broker.topology,
        seed=seed,
        loss=0.08,
        crashes=1,
        crash_length=60.0,
        horizon=300.0,
    )
    report = ChaosSimulation(broker, plan, reliable=True).run(
        points, publishers
    )
    payload = {
        "summary": [
            [name, repr(value)] for name, value in report.summary_rows()
        ],
        "latency": dataclasses.asdict(report.latency),
        "fault_stats": dataclasses.asdict(report.fault_stats),
        "finished_at": report.finished_at,
    }
    return json.dumps(payload, sort_keys=True)


class TestChaosDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        first = chaos_stats_json(2003)
        second = chaos_stats_json(2003)
        assert first.encode("utf-8") == second.encode("utf-8")

    def test_different_seeds_actually_differ(self):
        # Guards against the trivial way to pass the test above.
        assert chaos_stats_json(2003) != chaos_stats_json(2004)


class TestSamplerFallbackSeeding:
    """The DET02 fix: no-argument samplers are deterministic now."""

    def test_pareto_default_is_reproducible(self):
        a = ParetoSampler(2.0, 1.5).sample(64)
        b = ParetoSampler(2.0, 1.5).sample(64)
        np.testing.assert_array_equal(a, b)

    def test_zipf_default_is_reproducible(self):
        a = ZipfSampler(16).sample(64)
        b = ZipfSampler(16).sample(64)
        np.testing.assert_array_equal(a, b)

    def test_explicit_seed_changes_the_stream(self):
        a = ParetoSampler(2.0, 1.5, seed=0).sample(64)
        b = ParetoSampler(2.0, 1.5, seed=1).sample(64)
        assert not np.array_equal(a, b)

    def test_placement_default_is_reproducible(self, paper_topology):
        a = SubscriberPlacement(paper_topology)
        b = SubscriberPlacement(paper_topology)
        assert [a.place_one() for _ in range(32)] == [
            b.place_one() for _ in range(32)
        ]

    def test_injected_rng_still_wins(self):
        # Two samplers sharing one injected generator draw from the
        # same advancing stream — the seed fallback must not shadow it.
        shared = np.random.default_rng(7)
        s1 = ParetoSampler(2.0, 1.0, rng=shared)
        s2 = ParetoSampler(2.0, 1.0, rng=shared)
        assert not np.array_equal(s1.sample(4), s2.sample(4))
