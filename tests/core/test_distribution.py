"""Unit tests for the distribution-method policy."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeliveryMethod, PerGroupThresholdPolicy, ThresholdPolicy


class TestThresholdPolicy:
    def test_threshold_range(self):
        ThresholdPolicy(0.0)
        ThresholdPolicy(1.0)
        with pytest.raises(ValueError):
            ThresholdPolicy(-0.1)
        with pytest.raises(ValueError):
            ThresholdPolicy(1.1)

    def test_no_interested_means_not_sent(self):
        decision = ThresholdPolicy(0.15).decide(0, 100, group=3)
        assert decision.method is DeliveryMethod.NOT_SENT
        assert decision.interested == 0

    def test_catchall_means_unicast(self):
        decision = ThresholdPolicy(0.15).decide(5, 0, group=0)
        assert decision.method is DeliveryMethod.UNICAST

    def test_below_threshold_unicasts(self):
        # 10/100 = 0.1 < 0.15
        decision = ThresholdPolicy(0.15).decide(10, 100, group=1)
        assert decision.method is DeliveryMethod.UNICAST
        assert decision.interested_ratio == pytest.approx(0.1)

    def test_at_threshold_multicasts(self):
        # The rule is strict: unicast iff ratio < t.
        decision = ThresholdPolicy(0.15).decide(15, 100, group=1)
        assert decision.method is DeliveryMethod.MULTICAST

    def test_above_threshold_multicasts(self):
        decision = ThresholdPolicy(0.15).decide(60, 100, group=1)
        assert decision.method is DeliveryMethod.MULTICAST

    def test_zero_threshold_always_multicasts(self):
        # t=0 is the static scheme: any nonzero interest multicasts.
        policy = ThresholdPolicy(threshold=0.0)
        decision = policy.decide(1, 10_000, group=2)
        assert decision.method is DeliveryMethod.MULTICAST

    def test_threshold_one_unicasts_unless_full(self):
        policy = ThresholdPolicy(1.0)
        assert (
            policy.decide(99, 100, group=1).method
            is DeliveryMethod.UNICAST
        )
        assert (
            policy.decide(100, 100, group=1).method
            is DeliveryMethod.MULTICAST
        )

    def test_decision_records_group(self):
        decision = ThresholdPolicy(0.5).decide(4, 10, group=7)
        assert decision.group == 7
        assert decision.group_size == 10

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(0.5).decide(-1, 10, group=1)
        with pytest.raises(ValueError):
            ThresholdPolicy(0.5).decide(1, -10, group=1)

    def test_ratio_with_no_group(self):
        decision = ThresholdPolicy(0.5).decide(5, 0, group=0)
        assert decision.interested_ratio == 0.0


class TestDegradedFlood:
    def test_always_multicast(self):
        from repro.core.distribution import degraded_flood

        decision = degraded_flood(interested=3, group_size=12, group=4)
        assert decision.method is DeliveryMethod.MULTICAST
        assert decision.group == 4
        assert decision.group_size == 12
        # Even a ratio far below any threshold floods in degraded mode.
        assert decision.interested_ratio == pytest.approx(0.25)

    def test_catchall_rejected(self):
        from repro.core.distribution import degraded_flood

        with pytest.raises(ValueError) as excinfo:
            degraded_flood(interested=1, group_size=0, group=0)
        assert str(excinfo.value) == (
            "degraded_flood: group must be >= 1 (got 0)"
        )


THRESHOLDS = (0.0, 0.05, 0.1, 0.15, 0.2, 1 / 3, 0.5, 1.0)


class TestPerGroupAgreesWithThresholdPolicy:
    """Both policies apply one rule; a per-group policy decides for a
    group as a global policy at that group's threshold does."""

    @staticmethod
    def assert_agree(policy, interested, group_size, group):
        expected = ThresholdPolicy(policy.threshold_for(group))
        assert policy.decide(interested, group_size, group) == (
            expected.decide(interested, group_size, group)
        )

    def test_on_a_grid(self):
        # Ratios land on, just under and just over every threshold.
        sizes = (0, 1, 2, 3, 5, 7, 10, 20, 100)
        for default, special in itertools.product(THRESHOLDS, repeat=2):
            policy = PerGroupThresholdPolicy(default, {2: special})
            for size, group in itertools.product(sizes, (0, 1, 2)):
                for interested in range(size + 2):
                    self.assert_agree(policy, interested, size, group)

    @settings(deadline=None)
    @given(
        interested=st.integers(-2, 120),
        group_size=st.integers(-2, 120),
        group=st.integers(0, 5),
        default=st.floats(0.0, 1.0),
        per_group=st.dictionaries(st.integers(0, 5), st.floats(0.0, 1.0)),
    )
    def test_generated(self, interested, group_size, group, default, per_group):
        policy = PerGroupThresholdPolicy(default, per_group)
        if interested < 0 or group_size < 0:
            for each in (policy, ThresholdPolicy(policy.threshold_for(group))):
                with pytest.raises(ValueError, match="non-negative"):
                    each.decide(interested, group_size, group)
            return
        self.assert_agree(policy, interested, group_size, group)
