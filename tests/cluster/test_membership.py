"""Membership: suspicion hysteresis, sticky death, rejoin, view epochs."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import MemberState, Membership, MembershipConfig

REPO_ROOT = Path(__file__).resolve().parents[2]


def _membership(**overrides):
    config = MembershipConfig(
        heartbeat_interval=10.0,
        suspect_after=25.0,
        confirm_after=55.0,
        **overrides,
    )
    return Membership([1, 2, 3], config)


class TestHysteresis:
    def test_silence_walks_alive_suspect_dead(self):
        m = _membership()
        assert m.tick(20.0) == []
        assert m.state_of(1) is MemberState.ALIVE
        # Nodes 2 and 3 keep beating; node 1 goes silent.
        m.heard(2, 30.0)
        m.heard(3, 30.0)
        assert m.tick(30.0) == [(1, MemberState.SUSPECT)]
        m.heard(2, 60.0)
        m.heard(3, 60.0)
        assert m.tick(60.0) == [(1, MemberState.DEAD)]
        assert m.state_of(1) is MemberState.DEAD
        assert m.suspicions == 1
        assert m.confirmed_deaths == 1

    def test_suspicion_starts_strictly_past_suspect_after(self):
        m = _membership()
        assert m.tick(25.0) == []  # silence == suspect_after: not yet
        assert [state for _, state in m.tick(25.001)] == [
            MemberState.SUSPECT
        ] * 3

    def test_a_delayed_heartbeat_does_not_rewind_the_clock(self):
        m = _membership()
        m.heard(1, 60.0)
        m.heard(1, 10.0)  # a straggler arriving late
        assert m.last_heard(1) == 60.0

    def test_heartbeat_recovers_a_suspect(self):
        m = _membership()
        m.tick(30.0)
        assert m.state_of(1) is MemberState.SUSPECT
        assert m.heard(1, 31.0)
        assert m.state_of(1) is MemberState.ALIVE
        assert m.recoveries == 1
        # The silence clock restarted: no immediate re-suspicion.
        assert m.tick(40.0) == []

    def test_dead_is_sticky_and_counts_stale_heartbeats(self):
        m = _membership()
        m.mark_dead(1)
        assert not m.heard(1, 5.0)
        assert not m.heard(1, 6.0)
        assert m.state_of(1) is MemberState.DEAD
        assert m.stale_heartbeats == 2
        assert not m.is_usable(1)

    def test_a_restarted_node_rejoins_as_a_new_incarnation(self):
        m = _membership()
        m.mark_dead(1)
        epoch = m.epoch
        m.rejoin(1, 70.0)
        assert m.state_of(1) is MemberState.ALIVE
        assert m.epoch == epoch + 1
        assert m.last_heard(1) == 70.0
        assert m.heard(1, 75.0)  # its heartbeats count again
        m.rejoin(2, 80.0)  # a live node has nothing to rejoin
        assert m.epoch == epoch + 1

    def test_mark_dead_is_idempotent(self):
        m = _membership()
        m.mark_dead(2)
        epoch = m.epoch
        m.mark_dead(2)
        assert m.epoch == epoch
        assert m.confirmed_deaths == 1

    def test_dead_nodes_skip_further_transitions(self):
        m = _membership()
        m.mark_dead(1)
        # Node 1 never transitions again, however long the silence.
        assert all(node != 1 for node, _ in m.tick(1e6))


class TestEpochs:
    def test_every_transition_bumps_the_view_epoch(self):
        m = _membership()
        assert m.epoch == 0
        m.tick(30.0)  # 1, 2, 3 all -> SUSPECT
        assert m.epoch == 3
        m.heard(1, 31.0)  # SUSPECT -> ALIVE
        assert m.epoch == 4
        m.mark_dead(2)
        assert m.epoch == 5

    def test_advance_epoch_is_monotone(self):
        m = _membership()
        first = m.advance_epoch()
        second = m.advance_epoch()
        assert second == first + 1 == m.epoch

    def test_view_snapshot(self):
        m = _membership()
        m.heard(2, 30.0)
        m.heard(3, 30.0)
        m.tick(30.0)  # node 1 -> SUSPECT
        m.mark_dead(3)
        view = m.view()
        assert view.epoch == m.epoch
        assert view.alive == frozenset({2})
        assert view.suspect == frozenset({1})
        assert view.dead == frozenset({3})
        assert view.members == frozenset({1, 2, 3})


class TestMisuse:
    """Uniform ValueError messages (proved real under -O below)."""

    def test_empty_membership(self):
        with pytest.raises(ValueError, match=r"member node \(got none\)"):
            Membership([])

    def test_nonpositive_interval(self):
        with pytest.raises(
            ValueError, match=r"heartbeat_interval must be positive \(got 0.0\)"
        ):
            MembershipConfig(heartbeat_interval=0.0)

    def test_suspect_not_beyond_interval(self):
        with pytest.raises(
            ValueError, match=r"suspect_after must exceed heartbeat_interval"
        ):
            MembershipConfig(heartbeat_interval=10.0, suspect_after=10.0)

    def test_confirm_not_beyond_suspect(self):
        with pytest.raises(
            ValueError, match=r"confirm_after must exceed suspect_after"
        ):
            MembershipConfig(suspect_after=25.0, confirm_after=25.0)

    def test_misuse_survives_python_O(self):
        """The guards are ValueError raises, not asserts: they must
        still fire under ``python -O`` (which strips asserts)."""
        probe = (
            "from repro.cluster import Membership, MembershipConfig\n"
            "assert False\n"  # canary: -O must strip this line
            "for attempt in ("
            "lambda: Membership([]),"
            "lambda: MembershipConfig(heartbeat_interval=0.0),"
            "lambda: MembershipConfig(suspect_after=5.0),"
            "lambda: MembershipConfig(confirm_after=20.0),"
            "):\n"
            "    try:\n"
            "        attempt()\n"
            "    except ValueError:\n"
            "        pass\n"
            "    else:\n"
            "        raise SystemExit('guard missing under -O')\n"
            "print('OK')\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", probe],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout
