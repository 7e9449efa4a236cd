"""Generated schedules for the shipping protocol: every standby converges.

A Hypothesis rule machine drives :class:`~repro.replication.LogShipper`
and its :class:`~repro.replication.StandbyReplica` standbys through the
test rig of ``test_shipping.py``, over a network it controls message by
message.  The rules journal records, run the flush a journal record
triggers (the rig's ``tap``, through the replica set's journal tap)
and the tick flush, deliver shipped messages and acks in any order
— dropping some, duplicating others — and trip a standby's breaker.

Whatever the schedule, the protocol is cumulative and idempotent, so
whenever the network turns clean (a rule of its own, and the end of
every schedule) the tick flush alone must bring every standby to the
stream head: after enough clean ticks, each standby's physical WAL
equals the primary's byte for byte and its ``applied_index`` is the
shipper's ``next_index``.
"""

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.overload.breaker import BreakerBoard, BreakerConfig
from repro.replication import ShippingConfig
from tests.replication.test_shipping import _Rig

#: Node 0 included: a falsy id must ship like any other.
STANDBYS = (9, 0)
#: Small enough that generated schedules reach trimming, catch-ups and
#: the no-progress breaker within a few dozen steps.
CONFIG = ShippingConfig(
    batch_ops=3, retain_ops=12, catchup_lag=9, failure_after=2
)
#: Simulated time one rule takes; a few steps outlast a breaker's reset.
STEP = 10.0
BREAKERS = BreakerConfig(failure_threshold=1, reset_timeout=3 * STEP)
#: Clean ticks allowed to converge after the generated schedule.
CLEAN_TICKS = 10

_pick = st.integers(0, 2**16)
FATES = ("delivered", "lost", "duplicate")


class ShippingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.breakers = BreakerBoard(BREAKERS)
        self.rig = _Rig(
            standbys=STANDBYS, config=CONFIG, breakers=self.breakers
        )
        self.now = 0.0
        self.records = 0
        #: Replies on their way back to the primary.
        self.replies = []

    # -- the primary ---------------------------------------------------------

    def _advance(self):
        self.now += STEP

    @rule(count=st.integers(1, 8))
    def journal(self, count):
        self.rig.journal(count, start=self.records)
        self.records += count
        self._advance()

    @rule()
    def record_flush(self):
        """One more record, and the flush its journal tap triggers."""
        self.rig.tap(1, start=self.records, now=self.now)
        self.records += 1
        self._advance()

    @rule()
    def tick_flush(self):
        self.rig.shipper.flush(self.now)
        self._advance()

    @rule(standby=st.sampled_from(STANDBYS))
    def trip_breaker(self, standby):
        self.breakers.record_failure(standby, self.now)
        self._advance()

    # -- the network ---------------------------------------------------------

    @rule(pick=_pick, shipment=st.booleans(), fate=st.sampled_from(FATES))
    def deliver(self, pick, shipment, fate):
        """One shipment or reply in flight, picked out of order, is
        delivered, lost, or delivered while a duplicate stays behind
        to arrive later."""
        queue = self.rig.outbox if shipment else self.replies
        if not queue:
            return
        index = pick % len(queue)
        message = queue[index]
        if fate != "duplicate":
            del queue[index]
        if fate == "lost":
            return
        if shipment:
            standby, payload = message
            reply = self.rig.replicas[standby].receive(payload)
            if reply is not None:
                self.replies.append(reply)
        else:
            self._acked(message)

    def _acked(self, reply):
        assert reply["type"] == "ack"
        self.rig.shipper.ack(reply["node"], reply["applied"], self.now)

    # -- convergence ---------------------------------------------------------

    @rule()
    def converge(self):
        """The network turns clean: what is in flight arrives, then
        each tick (spaced past a breaker's reset) is delivered in full
        until every standby is at the stream head."""
        shipper = self.rig.shipper
        self.rig.deliver()
        for reply in self.replies:
            self._acked(reply)
        self.replies = []
        for _ in range(CLEAN_TICKS):
            if all(shipper.lag(s) == 0 for s in STANDBYS):
                break
            self.now += BREAKERS.reset_timeout
            shipper.flush(self.now)
            self.rig.deliver()
        for standby in STANDBYS:
            assert shipper.lag(standby) == 0, (standby, shipper.lag(standby))
            replica = self.rig.replicas[standby]
            assert replica.wal.copy_out() == self.rig.wal.copy_out()
            assert replica.applied_index == shipper.next_index

    def teardown(self):
        self.converge()


TestShippingConverges = ShippingMachine.TestCase
