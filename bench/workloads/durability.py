"""The journal on a real file: steady state, a pinned log, recovery."""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Set, Tuple

import numpy as np

import repro.durability as durability
from repro.core.event import Event
from repro.experiments.config import ExperimentConfig
from repro.experiments.testbed import build_testbed
from repro.workload.publications import PublicationGenerator
from repro.workload.subscriptions import StockSubscriptionGenerator

from ..harness import Rep, Timer, Workload
from .core import DEPLOY_SEED, MODES, build_churn_broker

CHECKPOINT_EVERY = 256
TARGETS = 3
#: Subscribes (and half as many unsubscribes) journaled per phase, so
#: recovery has table changes both inside the snapshot and after it.
CHURN_PER_PHASE = 8
#: Points whose matches are compared before the crash and after restore.
PARITY_POINTS = 200


class DurabilityWorkload(Workload):
    """Journal events, pin the log, then crash and recover.

    One rep, in a fresh directory: ``events`` journaled with every
    delivery acked (the log is truncated at each checkpoint), the same
    number again with the first intent never acked (the low-water mark
    pins the log, which grows), then one ``recover`` + ``restore_broker``
    from the pinned log.  An event is one ``log_publish`` with three
    targets, three ``log_delivery`` and one ``maybe_checkpoint``; the
    rate counts the events of both phases over journal *and* recovery
    time, so the read path is inside the end-to-end number.
    """

    event_unit = "journaled event (1 intent + 3 deliveries), recovery included"

    def __init__(self, name: str, events: int, scratch: Path,
                 corrupt_oracle: bool = False):
        self.name = name
        self.events = events
        self.scratch = scratch
        self.corrupt_oracle = corrupt_oracle

    def prepare(self, seed: int) -> None:
        testbed = build_testbed(ExperimentConfig(seed=DEPLOY_SEED))
        self.broker = build_churn_broker(testbed)
        self.stubs = np.array(testbed.topology.all_stub_nodes())
        self.rng = np.random.default_rng(seed)
        self.stream = PublicationGenerator(
            testbed.density(MODES), self.stubs, seed=seed + 1
        )
        self.arrivals = StockSubscriptionGenerator(
            testbed.topology, seed=seed + 2
        )
        self.removed: Set[int] = set()
        self.sequence = 0
        self.reps_done = 0
        self.scratch.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _inputs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Publisher and ``TARGETS`` distinct targets for each event."""
        publishers = self.rng.choice(self.stubs, size=self.events)
        targets = np.array(
            [
                self.rng.choice(self.stubs, size=TARGETS, replace=False)
                for _ in range(self.events)
            ]
        )
        return publishers, targets

    def _churn(self) -> None:
        """A few journaled subscribes and unsubscribes (not timed)."""
        broker = self.broker
        for i in range(CHURN_PER_PHASE):
            placed = self.arrivals.generate_one(len(broker.table))
            broker.subscribe(placed.node, placed.rectangle)
            if i % 2:
                live = [
                    sid
                    for sid in range(len(broker.table))
                    if sid not in self.removed
                ]
                victim = int(self.rng.choice(live))
                broker.unsubscribe(victim)
                self.removed.add(victim)

    def rep(self, timer: Timer) -> Rep:
        broker = self.broker
        directory = self.scratch / f"rep{self.reps_done}"
        self.reps_done += 1
        directory.mkdir(parents=True)
        wal = durability.FileWAL(directory / "wal.bin")
        store = durability.FileSnapshotStore(directory / "snapshots")
        journal = durability.BrokerJournal(
            broker, wal, store, checkpoint_every=CHECKPOINT_EVERY
        )
        broker.attach_journal(journal)
        journal.checkpoint()
        cycle = timer.call("bench.journal_event")
        recover = timer.call("bench.recover")
        restore = timer.call("bench.restore")
        appends_before = wal.appends

        def journal_event(sequence, publisher, targets, skip):
            journal.log_publish(sequence, publisher, targets, "unicast", 0)
            for target in targets:
                if target != skip:
                    journal.log_delivery(sequence, target)
            journal.maybe_checkpoint()

        # One unit of work per journaled event, then recover, restore.
        work_ns = np.empty(2 * self.events + 2, np.int64)
        pinned: Tuple[int, int] = (-1, -1)
        for pin in (False, True):
            self._churn()
            publishers, targets = self._inputs()
            first = self.events if pin else 0
            timer.read(first)
            with timer.phase("timed"):
                for k in range(self.events):
                    sequence = self.sequence
                    self.sequence += 1
                    row = [int(t) for t in targets[k]]
                    skip = -1
                    if pin and k == 0:
                        skip = row[0]
                        pinned = (sequence, skip)
                    timer.shared(sequence)
                    _, work_ns[first + k] = cycle(
                        journal_event, sequence, int(publishers[k]), row, skip
                    )
                    timer.worked(first + k, int(work_ns[first + k]))
        records = wal.appends - appends_before
        retained = wal.end_lsn - wal.base_lsn
        checkpoints = journal.checkpoints

        points, _ = self.stream.generate(PARITY_POINTS)
        probes = [Event.create(i, 0, point) for i, point in enumerate(points)]
        before = [broker.engine.match(e).subscription_ids for e in probes]
        table_before = [(s.subscriber, s.rectangle) for s in broker.table]

        # The "crash": everything in memory is dropped, the files stay.
        broker.attach_journal(None)
        timer.read(2 * self.events)
        with timer.phase("timed"):
            state, recover_ns = recover(durability.recover, wal, store)
            timer.read(2 * self.events + 1)
            _, restore_ns = restore(durability.restore_broker, broker, state)
        work_ns[-2:] = recover_ns, restore_ns

        expected_inflight = {pinned[0]: (pinned[1],)}
        if self.corrupt_oracle:
            expected_inflight = {}
        checks = [
            [(s.subscriber, s.rectangle) for s in state.table] == table_before,
            set(state.removed) == self.removed,
            {
                seq: tuple(entry.targets)
                for seq, entry in state.inflight.items()
            }
            == expected_inflight,
        ]
        after = [broker.engine.match(e).subscription_ids for e in probes]
        checks.extend(a == b for a, b in zip(after, before))
        failed = sum(1 for ok in checks if not ok)

        steady_s = float(work_ns[: self.events].sum()) / 1e9
        pinned_s = float(work_ns[self.events : -2].sum()) / 1e9
        per_phase = records / 2  # the few churn records aside, equal halves
        return Rep(
            events=2 * self.events,
            work_ns=work_ns,
            attempted=records + len(checks),
            failed=failed,
            values={
                "durability.journal_rec_per_s": records
                / (steady_s + pinned_s),
                "durability.steady_rec_per_s": per_phase / steady_s,
                "durability.pinned_rec_per_s": per_phase / pinned_s,
                "durability.recover_ms": recover_ns / 1e6,
                "durability.restore_ms": restore_ns / 1e6,
            },
            counts={
                "durability.checkpoints": float(checkpoints),
                "durability.wal_retained_bytes": float(retained),
                "durability.replayed_records": float(state.replayed),
            },
        )
