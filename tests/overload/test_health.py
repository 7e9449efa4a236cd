"""Unit tests for the health state machine's hysteresis."""

import pytest

from repro.overload import BrokerHealth, HealthMonitor, HealthThresholds


THRESHOLDS = HealthThresholds(
    degrade_high=0.6,
    degrade_low=0.3,
    overload_high=0.9,
    overload_low=0.6,
    min_dwell=10.0,
)


@pytest.fixture()
def monitor():
    return HealthMonitor(THRESHOLDS)


class TestValidation:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="degrade_low < degrade_high"):
            HealthThresholds(degrade_low=0.7, degrade_high=0.6)
        with pytest.raises(ValueError, match="overload_low"):
            HealthThresholds(degrade_high=0.8, overload_low=0.7)
        with pytest.raises(ValueError, match="overload_high must be <= 1"):
            HealthThresholds(overload_high=1.5)
        with pytest.raises(ValueError, match="min_dwell"):
            HealthThresholds(min_dwell=-1.0)


class TestUpwardTransitions:
    def test_degrade_fires_immediately_at_high_water(self, monitor):
        assert monitor.observe(0.0, 0.59) is BrokerHealth.HEALTHY
        assert monitor.observe(0.1, 0.60) is BrokerHealth.DEGRADED

    def test_overload_fires_immediately(self, monitor):
        monitor.observe(0.0, 0.7)
        assert monitor.observe(0.1, 0.90) is BrokerHealth.OVERLOADED

    def test_healthy_can_jump_straight_to_overloaded(self, monitor):
        assert monitor.observe(0.0, 0.95) is BrokerHealth.OVERLOADED


class TestHysteresis:
    def test_downward_needs_low_water_not_just_below_high(self, monitor):
        monitor.observe(0.0, 0.7)  # DEGRADED
        # 0.5 is below degrade_high but above degrade_low: stay put,
        # however long it dwells.
        assert monitor.observe(50.0, 0.5) is BrokerHealth.DEGRADED

    def test_downward_needs_dwell_time(self, monitor):
        monitor.observe(0.0, 0.7)  # DEGRADED at t=0
        assert monitor.observe(5.0, 0.1) is BrokerHealth.DEGRADED
        assert monitor.observe(10.0, 0.1) is BrokerHealth.HEALTHY

    def test_no_flapping_at_the_boundary(self, monitor):
        # Oscillate around degrade_high after degrading: one
        # transition, not one per sample.
        monitor.observe(0.0, 0.65)
        for i in range(1, 50):
            monitor.observe(float(i) * 0.1, 0.55 if i % 2 else 0.65)
        assert len(monitor.transitions) == 1

    def test_overload_recovers_one_step_at_a_time(self, monitor):
        monitor.observe(0.0, 0.95)  # OVERLOADED
        assert monitor.observe(20.0, 0.0) is BrokerHealth.DEGRADED
        # Dwell restarts in DEGRADED before the final step down.
        assert monitor.observe(25.0, 0.0) is BrokerHealth.DEGRADED
        assert monitor.observe(30.0, 0.0) is BrokerHealth.HEALTHY
        assert [state for _, state in monitor.transitions] == [
            BrokerHealth.OVERLOADED,
            BrokerHealth.DEGRADED,
            BrokerHealth.HEALTHY,
        ]


class TestAccounting:
    def test_samples_count_per_state(self, monitor):
        for i in range(5):
            monitor.observe(float(i), 0.0)
        monitor.observe(6.0, 0.7)
        monitor.observe(7.0, 0.7)
        assert monitor.samples[BrokerHealth.HEALTHY] == 5
        assert monitor.samples[BrokerHealth.DEGRADED] == 2

    def test_flags(self, monitor):
        assert not monitor.degraded
        assert monitor.state is not BrokerHealth.OVERLOADED
        monitor.observe(0.0, 0.7)
        assert monitor.degraded
        assert monitor.state is not BrokerHealth.OVERLOADED
        monitor.observe(1.0, 0.95)
        assert monitor.degraded
        assert monitor.state is BrokerHealth.OVERLOADED
