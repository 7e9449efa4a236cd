"""Tests for the replication and latency experiment drivers."""

import pytest

from repro.experiments import (
    SMALL_CONFIG,
    build_testbed,
    run_latency_experiment,
    run_replication,
)
from repro.experiments.replication import Replicate, ReplicationSummary


class TestReplication:
    def test_small_replication(self):
        summary = run_replication(
            SMALL_CONFIG, seeds=(3, 5), num_groups=4, modes=4
        )
        assert len(summary.replicates) == 2
        for replicate in summary.replicates:
            assert replicate.dynamic_gain >= -1e-9
            assert 0.0 <= replicate.best_threshold <= 1.0

    def test_shapes_hold_on_every_replicate(self):
        summary = ReplicationSummary(
            replicates=(
                Replicate(1, 10.0, 12.0, 0.05),
                Replicate(2, 20.0, 24.0, 0.10),
            )
        )
        assert summary.all_shapes_hold()

    def test_shape_violation_detected(self):
        summary = ReplicationSummary(
            replicates=(Replicate(1, 10.0, -5.0, 0.05),)
        )
        assert not summary.all_shapes_hold()


class TestLatencyExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        testbed = build_testbed(SMALL_CONFIG)
        return run_latency_experiment(
            SMALL_CONFIG,
            testbed,
            modes=4,
            num_groups=4,
            thresholds=(0.0, 1.0),
            num_events=60,
        )

    def test_row_structure(self, rows):
        assert len(rows) == 4  # 2 thresholds x burst/paced
        labels = {row.label for row in rows}
        assert "t=0.00/burst" in labels
        assert "t=1.00/paced" in labels

    def test_deliveries_policy_invariant(self, rows):
        deliveries = {row.report.deliveries for row in rows}
        assert len(deliveries) == 1

    def test_pacing_never_increases_queueing(self, rows):
        by_label = {row.label: row.report for row in rows}
        for threshold in ("0.00", "1.00"):
            assert (
                by_label[f"t={threshold}/paced"].queueing_delay
                <= by_label[f"t={threshold}/burst"].queueing_delay
            )
