"""Crash/outage window edges: half-open ``[start, end)``, validated loudly.

One recovery rule covers both failures of a shard home: a crashed home
restarts from its own WAL, a killed one is succeeded by a standby.
For the first, the cluster harness schedules its crash callback at
``start`` and its restart callback at ``end``; these tests pin the
window semantics those callbacks assume — down *at* ``start``, up
again *at* ``end`` — and that zero-length/inverted windows are
rejected even under ``python -O``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.faults import BrokerCrash, FaultInjector, FaultPlan, LinkOutage


class TestWindowEdges:
    def test_broker_crash_is_half_open(self):
        window = BrokerCrash(node=3, start=10.0, end=20.0)
        assert not window.active(10.0 - 1e-9)
        assert window.active(10.0)          # down exactly at start
        assert window.active(20.0 - 1e-9)   # still down just before end
        assert not window.active(20.0)      # up exactly at end
        assert not window.active(20.0 + 1e-9)

    def test_link_outage_is_half_open(self):
        window = LinkOutage(u=0, v=1, start=5.0, end=6.0)
        assert window.active(5.0)
        assert not window.active(6.0)

    def test_injector_node_down_at_edges(self):
        plan = FaultPlan(
            seed=1, crashes=(BrokerCrash(node=4, start=10.0, end=20.0),)
        )
        injector = FaultInjector(plan)
        assert not injector.node_down(4, 9.999)
        assert injector.node_down(4, 10.0)
        assert injector.node_down(4, 15.0)
        assert not injector.node_down(4, 20.0)
        assert not injector.node_down(5, 15.0)  # other nodes unaffected

    def test_adjacent_windows_leave_no_gap_and_no_overlap(self):
        plan = FaultPlan(
            seed=1,
            crashes=(
                BrokerCrash(node=4, start=10.0, end=20.0),
                BrokerCrash(node=4, start=20.0, end=30.0),
            ),
        )
        injector = FaultInjector(plan)
        # Back-to-back windows behave as one continuous outage: at the
        # shared edge exactly one window claims the instant.
        assert injector.node_down(4, 19.999)
        assert injector.node_down(4, 20.0)
        assert injector.node_down(4, 29.999)
        assert not injector.node_down(4, 30.0)


class TestWindowValidation:
    @pytest.mark.parametrize("cls, args", [
        (BrokerCrash, {"node": 0}),
        (LinkOutage, {"u": 0, "v": 1}),
    ])
    def test_zero_length_window_is_rejected(self, cls, args):
        with pytest.raises(ValueError, match="zero-length window"):
            cls(start=5.0, end=5.0, **args)

    @pytest.mark.parametrize("cls, args", [
        (BrokerCrash, {"node": 0}),
        (LinkOutage, {"u": 0, "v": 1}),
    ])
    def test_inverted_window_is_rejected(self, cls, args):
        with pytest.raises(ValueError, match="inverted"):
            cls(start=9.0, end=2.0, **args)

    def test_zero_length_rejection_survives_python_O(self):
        # The guard must be a plain raise, not an assert: ``python -O``
        # strips asserts, and a silently-accepted zero-length window
        # would make a crash schedule a recovery at the same instant.
        program = (
            "from repro.faults.plan import BrokerCrash, LinkOutage\n"
            "assert False  # proves -O is active: this must not raise\n"
            "for cls, kwargs in [\n"
            "    (BrokerCrash, {'node': 0}),\n"
            "    (LinkOutage, {'u': 0, 'v': 1}),\n"
            "]:\n"
            "    try:\n"
            "        cls(start=5.0, end=5.0, **kwargs)\n"
            "    except ValueError as error:\n"
            "        if 'zero-length window' not in str(error):\n"
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
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.strip() == "OK"
