"""Unit tests for the deterministic fault plan / injector."""

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultState
from repro.faults.plan import BrokerCrash, LinkFault, LinkOutage


class TestPlanValidation:
    def test_default_plan_is_disabled(self):
        plan = FaultPlan()
        assert not plan.enabled

    def test_any_fault_enables(self):
        assert FaultPlan(default_loss=0.1).enabled
        assert FaultPlan(default_duplicate=0.1).enabled
        assert FaultPlan(default_delay=1.0).enabled
        assert FaultPlan(link_faults=(LinkFault(0, 1, loss=0.5),)).enabled
        assert FaultPlan(outages=(LinkOutage(0, 1, 1.0, 2.0),)).enabled
        assert FaultPlan(crashes=(BrokerCrash(0, 1.0, 2.0),)).enabled

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(default_loss=1.5)
        with pytest.raises(ValueError):
            FaultPlan(default_duplicate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(default_delay=-1.0)
        with pytest.raises(ValueError):
            LinkFault(0, 1, loss=2.0)
        with pytest.raises(ValueError):
            LinkFault(0, 1, duplicate=-0.5)

    def test_windows_validated(self):
        with pytest.raises(ValueError):
            LinkOutage(0, 1, start=5.0, end=5.0)
        with pytest.raises(ValueError):
            BrokerCrash(0, start=2.0, end=1.0)


class TestWindowedFaults:
    def test_outage_window_is_half_open(self):
        injector = FaultInjector(
            FaultPlan(outages=(LinkOutage(3, 4, start=10.0, end=20.0),))
        )
        assert not injector.link_down(3, 4, 9.999)
        assert injector.link_down(3, 4, 10.0)
        assert injector.link_down(4, 3, 15.0)  # undirected
        assert not injector.link_down(3, 4, 20.0)  # restart instant

    def test_crash_window_is_half_open(self):
        injector = FaultInjector(
            FaultPlan(crashes=(BrokerCrash(7, start=5.0, end=8.0),))
        )
        assert not injector.node_down(7, 4.999)
        assert injector.node_down(7, 5.0)
        assert not injector.node_down(7, 8.0)
        assert not injector.node_down(6, 6.0)  # other nodes unaffected

    def test_transmission_fate_during_outage(self):
        injector = FaultInjector(
            FaultPlan(outages=(LinkOutage(0, 1, start=0.0, end=10.0),))
        )
        fate = injector.filter_transmission(0, 1, 5.0)
        assert fate.sent and fate.copies == 0
        assert injector.stats.outage_drops == 1

    def test_crashed_sender_never_enters_link(self):
        injector = FaultInjector(
            FaultPlan(crashes=(BrokerCrash(0, start=0.0, end=10.0),))
        )
        fate = injector.filter_transmission(0, 1, 5.0)
        assert not fate.sent
        assert injector.stats.sender_down_drops == 1

    def test_crashed_receiver_blocks_arrival(self):
        injector = FaultInjector(
            FaultPlan(crashes=(BrokerCrash(9, start=0.0, end=10.0),))
        )
        assert injector.arrival_blocked(9, 5.0)
        assert not injector.arrival_blocked(9, 12.0)
        assert injector.stats.receiver_down_drops == 1


class TestFailureDetector:
    def test_state_at_reports_active_windows(self):
        injector = FaultInjector(
            FaultPlan(
                outages=(LinkOutage(1, 2, 10.0, 20.0),),
                crashes=(BrokerCrash(5, 15.0, 25.0),),
            )
        )
        early = injector.state_at(5.0)
        assert early.clear

        mid = injector.state_at(17.0)
        assert mid.link_dead(1, 2)
        assert mid.link_dead(2, 1)
        assert 5 in mid.dead_nodes
        # Links touching a dead node count as dead.
        assert mid.link_dead(5, 6)

        late = injector.state_at(30.0)
        assert late.clear

    def test_permanently_lossy_link_reported_dead(self):
        injector = FaultInjector(
            FaultPlan(link_faults=(LinkFault(2, 3, loss=1.0),))
        )
        state = injector.state_at(0.0)
        assert state.link_dead(2, 3)
        # But a merely-lossy link is not dead.
        lossy = FaultInjector(
            FaultPlan(link_faults=(LinkFault(2, 3, loss=0.9),))
        )
        assert lossy.state_at(0.0).clear

    def test_none_state_is_neutral(self):
        state = FaultState(0.0, frozenset(), frozenset())
        assert state.clear
        assert 0 not in state.dead_nodes
        assert not state.link_dead(0, 1)


class TestProbabilisticStream:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(seed=42, default_loss=0.3, default_duplicate=0.2)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        fates_a = [a.filter_transmission(0, 1, float(t)) for t in range(200)]
        fates_b = [b.filter_transmission(0, 1, float(t)) for t in range(200)]
        assert fates_a == fates_b
        assert a.stats == b.stats
        assert a.stats.random_drops > 0
        assert a.stats.duplicates_injected > 0

    def test_reset_replays_the_stream(self):
        injector = FaultInjector(FaultPlan(seed=3, default_loss=0.5))
        first = [
            injector.filter_transmission(0, 1, 0.0) for _ in range(50)
        ]
        injector.reset()
        assert injector.stats.transmissions_seen == 0
        second = [
            injector.filter_transmission(0, 1, 0.0) for _ in range(50)
        ]
        assert first == second

    def test_certain_loss_needs_no_draw(self):
        injector = FaultInjector(
            FaultPlan(link_faults=(LinkFault(0, 1, loss=1.0),))
        )
        for _ in range(10):
            assert injector.filter_transmission(0, 1, 0.0).copies == 0
        assert injector.stats.random_drops == 10

    def test_empty_plan_touches_nothing(self):
        injector = FaultInjector(FaultPlan())
        for t in range(100):
            fate = injector.filter_transmission(0, 1, float(t))
            assert fate.sent and fate.copies != 0
            assert fate.copies == 1 and fate.extra_delay == 0.0
        stats = injector.stats
        assert stats.random_drops == stats.outage_drops == 0
        assert stats.sender_down_drops == stats.receiver_down_drops == 0
        assert injector.stats.duplicates_injected == 0
        assert injector.stats.delays_injected == 0

    def test_delay_injection_bounded(self):
        injector = FaultInjector(FaultPlan(seed=1, default_delay=2.5))
        for _ in range(50):
            fate = injector.filter_transmission(0, 1, 0.0)
            assert 0.0 <= fate.extra_delay < 2.5
        assert injector.stats.delays_injected == 50

    def test_per_link_fault_overrides_defaults(self):
        injector = FaultInjector(
            FaultPlan(
                seed=5,
                default_loss=0.0,
                link_faults=(LinkFault(0, 1, loss=1.0),),
            )
        )
        assert injector.filter_transmission(0, 1, 0.0).copies == 0
        assert injector.filter_transmission(2, 3, 0.0).copies != 0


class TestValidationMessages:
    CASES = [
        (lambda: LinkFault(0, 1, loss=2.0),
         "LinkFault: loss must lie in [0, 1] (got 2.0)"),
        (lambda: LinkFault(0, 1, duplicate=-0.1),
         "LinkFault: duplicate must lie in [0, 1] (got -0.1)"),
        (lambda: LinkFault(0, 1, delay=-1.0),
         "LinkFault: delay must be non-negative (got -1.0)"),
        (lambda: LinkOutage(0, 1, 5.0, 5.0),
         "LinkOutage: window must satisfy start < end "
         "(got [5.0, 5.0): a zero-length window never activates)"),
        (lambda: BrokerCrash(0, 9.0, 2.0),
         "BrokerCrash: window must satisfy start < end "
         "(got [9.0, 2.0): the window is inverted)"),
        (lambda: FaultPlan(default_loss=1.5),
         "FaultPlan: default_loss must lie in [0, 1] (got 1.5)"),
        (lambda: FaultPlan(default_duplicate=1.5),
         "FaultPlan: default_duplicate must lie in [0, 1] (got 1.5)"),
        (lambda: FaultPlan(default_delay=-2.0),
         "FaultPlan: default_delay must be non-negative (got -2.0)"),
    ]

    def test_messages_name_type_and_got_value(self):
        for call, expected in self.CASES:
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == expected

    def test_validation_survives_python_O(self):
        # Duration/probability validation must hold even when asserts
        # are stripped by ``python -O``.
        import os
        import subprocess
        import sys

        program = (
            "from repro.faults.plan import (\n"
            "    BrokerCrash, FaultPlan, LinkFault, LinkOutage)\n"
            "assert False  # proves -O is active: this must not raise\n"
            "cases = [\n"
            "    (lambda: LinkFault(0, 1, loss=2.0), 'LinkFault:'),\n"
            "    (lambda: LinkFault(0, 1, delay=-1.0), 'LinkFault:'),\n"
            "    (lambda: LinkOutage(0, 1, 5.0, 5.0), 'LinkOutage:'),\n"
            "    (lambda: BrokerCrash(0, 9.0, 2.0), 'BrokerCrash:'),\n"
            "    (lambda: FaultPlan(default_loss=1.5), 'FaultPlan:'),\n"
            "    (lambda: FaultPlan(default_delay=-2.0), 'FaultPlan:'),\n"
            "]\n"
            "for call, prefix in cases:\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as error:\n"
            "        if not str(error).startswith(prefix):\n"
            "            raise SystemExit(f'wrong message: {error}')\n"
            "    else:\n"
            "        raise SystemExit('ValueError not raised under -O')\n"
            "print('OK')\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", program],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "OK"


class TestBrokerKills:
    def test_kill_is_permanent(self):
        from repro.faults.plan import BrokerKill

        injector = FaultInjector(
            FaultPlan(broker_kills=(BrokerKill(node=4, at=100.0),))
        )
        assert not injector.node_down(4, 99.999)
        assert injector.node_down(4, 100.0)
        assert injector.node_down(4, 1e9)  # never restarts
        assert injector.node_killed(4, 100.0)
        assert not injector.node_killed(4, 50.0)
        assert not injector.node_killed(5, 1e9)

    def test_earliest_kill_wins(self):
        from repro.faults.plan import BrokerKill

        injector = FaultInjector(
            FaultPlan(
                broker_kills=(
                    BrokerKill(node=4, at=200.0),
                    BrokerKill(node=4, at=50.0),
                )
            )
        )
        assert injector.node_down(4, 60.0)

    def test_killed_nodes_appear_in_the_fault_state(self):
        from repro.faults.plan import BrokerKill

        injector = FaultInjector(
            FaultPlan(broker_kills=(BrokerKill(node=4, at=10.0),))
        )
        assert 4 not in injector.state_at(9.0).dead_nodes
        state = injector.state_at(10.0)
        assert 4 in state.dead_nodes
        assert state.link_dead(4, 7)  # any incident link counts as dead

    def test_kills_enable_the_plan(self):
        from repro.faults.plan import BrokerKill

        assert FaultPlan(broker_kills=(BrokerKill(node=1, at=0.0),)).enabled

    def test_kill_validation(self):
        from repro.faults.plan import BrokerKill

        with pytest.raises(ValueError):
            BrokerKill(node=1, at=-0.5)
