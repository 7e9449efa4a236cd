"""Epoch fencing: admission rules, directory resolution."""

import pytest

from repro.replication import EpochDirectory, EpochState, ReplicaRole


class TestEpochState:
    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            EpochState(node=1, epoch=-1)

    def test_admit_equal_and_higher(self):
        state = EpochState(node=1, epoch=2)
        assert state.admit(2)
        assert state.admit(5)
        assert state.epoch == 5
        assert state.stale_rejected == 0

    def test_admit_lower_is_stale(self):
        state = EpochState(node=1, epoch=3)
        assert not state.admit(2)
        assert state.stale_rejected == 1
        assert state.epoch == 3  # unchanged

    def test_higher_epoch_fences_a_primary(self):
        state = EpochState(node=1, epoch=0, role=ReplicaRole.PRIMARY)
        assert state.is_primary
        assert state.admit(1)
        assert state.role is ReplicaRole.FENCED
        assert state.epoch == 1
        assert not state.is_primary

    def test_higher_epoch_does_not_fence_a_standby(self):
        state = EpochState(node=1, role=ReplicaRole.STANDBY)
        state.adopt(2)
        assert state.role is ReplicaRole.STANDBY

    def test_adopt_ignores_old_epochs(self):
        state = EpochState(node=1, epoch=4, role=ReplicaRole.PRIMARY)
        state.adopt(3)
        assert state.epoch == 4
        assert state.role is ReplicaRole.PRIMARY

    def test_only_the_current_primary_admits_writes(self):
        primary = EpochState(node=1, epoch=1, role=ReplicaRole.PRIMARY)
        assert primary.admit_write(1)
        assert primary.writes_rejected == 0

    def test_fenced_ex_primary_rejects_writes(self):
        zombie = EpochState(node=1, epoch=0, role=ReplicaRole.PRIMARY)
        zombie.adopt(1)  # somebody took over
        assert not zombie.admit_write(1)
        assert zombie.writes_rejected == 1

    def test_stale_primary_rejects_post_epoch_writes(self):
        # A partitioned zombie that has not even learned the new epoch
        # yet still rejects: the write's epoch outranks its own.
        zombie = EpochState(node=1, epoch=0, role=ReplicaRole.PRIMARY)
        assert not zombie.admit_write(1)
        assert zombie.writes_rejected == 1

    def test_dead_replica_is_not_alive(self):
        state = EpochState(node=1, role=ReplicaRole.DEAD)
        assert not state.alive
        assert not state.admit_write(0)


class TestEpochDirectory:
    def test_unknown_nodes_resolve_to_themselves(self):
        directory = EpochDirectory()
        assert directory.resolve(7) == 7

    def test_advance_and_resolve(self):
        directory = EpochDirectory()
        directory.advance(4, 9, epoch=1)
        assert directory.resolve(4) == 9
        assert directory.resolve(9) == 9

    def test_chained_takeovers_follow_to_the_live_end(self):
        directory = EpochDirectory()
        directory.advance(4, 9, epoch=1)
        directory.advance(9, 8, epoch=2)
        assert directory.resolve(4) == 8
        assert directory.resolve(9) == 8
        assert directory.entries() == ((4, 9), (9, 8))

    def test_epoch_must_advance(self):
        directory = EpochDirectory()
        directory.advance(4, 9, epoch=1)
        with pytest.raises(ValueError):
            directory.advance(9, 8, epoch=1)

    def test_self_succession_rejected(self):
        directory = EpochDirectory()
        with pytest.raises(ValueError):
            directory.advance(4, 4, epoch=1)
