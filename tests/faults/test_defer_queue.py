"""Generated offer / drain sequences against :class:`DeferQueue`."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import DeferQueue

#: One step: offer the next sequence, or drain with the sequences whose
#: owner is ready at that moment; either way the clock moves first.
STEPS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0),
        st.one_of(st.none(), st.frozensets(st.integers(0, 40))),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(0, 8),
    ttl=st.floats(min_value=0.5, max_value=30.0),
    steps=STEPS,
)
def test_every_offer_leaves_exactly_once_in_waiting_order(
    capacity, ttl, steps
):
    queue = DeferQueue(capacity, ttl)
    now = 0.0
    offered_at = {}
    waiting = []  # the model: what the queue must still hold, in order
    left = {}  # sequence -> "shed" | "expired" | "ready"
    for advance, ready in steps:
        now += advance
        if ready is None:
            sequence = len(offered_at)
            offered_at[sequence] = now
            if queue.offer(sequence, now):
                waiting.append(sequence)
            else:
                assert len(waiting) == capacity
                left[sequence] = "shed"
        else:
            expired, served = queue.drain(now, ready.__contains__)
            assert expired == [
                s for s in waiting if now - offered_at[s] > ttl
            ]
            assert served == [
                s for s in waiting if s not in expired and s in ready
            ]
            for outcome, sequences in (("expired", expired), ("ready", served)):
                for sequence in sequences:
                    assert sequence not in left
                    left[sequence] = outcome
            waiting = [s for s in waiting if s not in left]
        assert len(queue) == len(waiting) <= capacity
    # The end-of-run drain expires whatever still waits, in order.
    expired, served = queue.drain(math.inf)
    assert (expired, served) == (waiting, [])
    assert len(queue) == 0
    for sequence in expired:
        assert sequence not in left
        left[sequence] = "expired"
    assert sorted(left) == sorted(offered_at)


def test_unbounded_queue_never_sheds_or_expires():
    queue = DeferQueue(math.inf, math.inf)
    for sequence in range(500):
        assert queue.offer(sequence, float(sequence))
    assert queue.drain(1e12) == ([], list(range(500)))


@pytest.mark.parametrize(
    "capacity, ttl, message",
    [
        (-1, 250.0, "defer_capacity must be >= 0 (got -1)"),
        (256, 0.0, "defer_ttl must be positive (got 0.0)"),
    ],
)
def test_constructor_messages(capacity, ttl, message):
    with pytest.raises(ValueError) as error:
        DeferQueue(capacity, ttl)
    assert str(error.value) == message
