"""Unit tests for group-efficiency tuning and the oracle bound."""

import numpy as np
import pytest

from repro.clustering import ForgyKMeansClustering
from repro.core import (
    PerGroupThresholdPolicy,
    PubSubBroker,
    ThresholdPolicy,
    ThresholdTuner,
    oracle_tally,
)


@pytest.fixture(scope="module")
def broker(small_topology, small_table, nine_mode_density):
    return PubSubBroker.preprocess(
        small_topology,
        small_table,
        ForgyKMeansClustering(),
        num_groups=6,
        density=nine_mode_density,
        cells_per_dim=6,
        max_cells=60,
        policy=ThresholdPolicy(0.15),
    )


class TestPerGroupPolicy:
    def test_lookup_with_default(self):
        policy = PerGroupThresholdPolicy(0.15, {2: 0.5})
        assert policy.threshold_for(2) == 0.5
        assert policy.threshold_for(1) == 0.15

    def test_decides_like_threshold_policy(self):
        policy = PerGroupThresholdPolicy(0.15, {3: 0.5})
        # group 3 uses t=0.5: ratio 0.3 -> unicast
        from repro.core import DeliveryMethod

        assert (
            policy.decide(3, 10, group=3).method
            is DeliveryMethod.UNICAST
        )
        # group 1 uses the default 0.15: ratio 0.3 -> multicast
        assert (
            policy.decide(3, 10, group=1).method
            is DeliveryMethod.MULTICAST
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PerGroupThresholdPolicy(default_threshold=2.0)
        with pytest.raises(ValueError):
            PerGroupThresholdPolicy(0.1, {1: 1.5})


class TestThresholdTuner:
    def test_collect_partitions_events(self, broker, small_events):
        points, publishers = small_events
        tuner = ThresholdTuner(broker)
        samples, catchall, unmatched = tuner.collect(points, publishers)
        total_sampled = sum(len(v) for v in samples.values())
        assert total_sampled + catchall + unmatched == len(points)
        for q, group_samples in samples.items():
            group = broker.partition.group(q)
            for sample in group_samples:
                assert sample.group_size == group.size
                assert 0.0 < sample.ratio <= 1.0
                assert sample.oracle_cost <= sample.unicast_cost
                assert sample.oracle_cost <= sample.multicast_cost

    def test_tuned_beats_every_global_threshold_in_training(
        self, broker, small_events
    ):
        points, publishers = small_events
        report = ThresholdTuner(broker).tune(points, publishers)
        tuned, _ = broker.with_policy(report.policy).run(
            points, publishers
        )
        for t in (0.0, 0.05, 0.15, 0.3, 0.5, 1.0):
            fixed, _ = broker.with_policy(ThresholdPolicy(t)).run(
                points, publishers
            )
            assert (
                tuned.improvement_percent
                >= fixed.improvement_percent - 1e-6
            ), t

    def test_oracle_dominates_everything(self, broker, small_events):
        points, publishers = small_events
        oracle = oracle_tally(broker, points, publishers)
        report = ThresholdTuner(broker).tune(points, publishers)
        tuned, _ = broker.with_policy(report.policy).run(
            points, publishers
        )
        assert (
            oracle.improvement_percent
            >= tuned.improvement_percent - 1e-6
        )
        assert oracle.improvement_percent >= -1e-9  # never worse than unicast
        assert oracle.messages == len(points)

    def test_efficiency_records(self, broker, small_events):
        points, publishers = small_events
        report = ThresholdTuner(broker).tune(points, publishers)
        assert report.per_group
        for row in report.per_group:
            assert 0.0 <= row.multicast_win_rate <= 1.0
            assert row.cost_at_best - row.cost_at_oracle >= -1e-9
            assert 0.0 <= row.best_threshold <= 1.0
            assert row.events > 0

    def test_tuned_thresholds_cover_observed_groups_only(
        self, broker, small_events
    ):
        points, publishers = small_events
        report = ThresholdTuner(broker).tune(points, publishers)
        observed = {row.group for row in report.per_group}
        assert set(report.policy.per_group) == observed

    def test_candidate_validation(self, broker):
        with pytest.raises(ValueError):
            ThresholdTuner(broker, candidates=())

    def test_threshold_semantics_of_tuner_costs(self, broker, small_events):
        """The tuner's internal cost model matches the broker's run."""
        points, publishers = small_events
        report = ThresholdTuner(broker).tune(points, publishers)
        _, records = broker.with_policy(report.policy).run(
            points, publishers, collect_records=True
        )
        # Recompute the per-group realized cost from the records and
        # compare against the tuner's cost_at_best bookkeeping.
        realized = {}
        for record in records:
            q = record.decision.group
            if q > 0 and not record.match.is_empty:
                realized[q] = realized.get(q, 0.0) + record.scheme_cost
        for row in report.per_group:
            assert realized.get(row.group, 0.0) == pytest.approx(
                row.cost_at_best, rel=1e-9
            )
