"""Store-and-forward packet transport over the testbed topology.

Models what the edge-cost accounting abstracts away:

- every link has a **propagation delay** proportional to its cost
  (the same quantity the paper sums for delivery cost), and
- putting a message onto a link takes a **transmission time**, during
  which the link (per direction) is busy — later messages queue.

A unicast traverses its shortest path hop by hop.  A multicast flows
down a tree: each relay node forwards one copy per child link.  With
these two rules the classic effect emerges naturally: a unicast storm
from one publisher serializes on the publisher's access links, while a
multicast tree crosses each link once.

**What a hop costs.**  A message in flight along a path is a
:class:`_Transit` — ``(network, path, position, on_delivered, time)``,
the copy that reaches ``path[position]`` at ``time`` — and the event
list holds the transit itself.  One link transmission allocates one
transit per arriving copy and nothing else: no closure, no wrapper, no
per-hop tuple besides the link key.  (A multicast tree's arrivals,
which call a relay callback, are :class:`_Arrival` entries.)  What is
static for the network's life is looked up, not recomputed: a link's
propagation delay is kept per directed link beside its busy-until time
(the first use of a link goes through ``RoutingTable.edge_cost``, which
is what rejects a non-edge).

**A position is never shared between copies.**  Each arriving copy is
a *new* transit for ``position + 1``.  An injected duplicate puts two
copies on one link, each with its own transit, so both continue from
the hop they reached.  One mutable position advanced on arrival would
let the second copy skip a hop (``tests/simulation/test_duplicates.py``).

**Scheduled callables are zero-argument and defined in this module** —
see :mod:`repro.simulation.engine` for who relies on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..network.routing import RoutingTable
from ..network.topology import Topology
from ..telemetry.base import Telemetry, or_null, tally
from .engine import DiscreteEventSimulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> simulation)
    from ..faults.plan import FaultInjector

__all__ = ["PacketNetwork", "TransferLog"]


class _Arrival:
    """One copy's arrival at a callback ``on_arrival(time)``."""

    __slots__ = ("on_arrival", "time")

    def __init__(
        self, on_arrival: Callable[[float], None], time: float
    ) -> None:
        self.on_arrival = on_arrival
        self.time = time

    def __call__(self) -> None:
        self.on_arrival(self.time)


class _Transit:
    """The copy of a message that reaches ``path[position]`` at ``time``.

    Immutable: a copy lost on the next link is retransmitted from the
    same transit, and each copy that arrives is a new one.
    """

    __slots__ = ("network", "path", "position", "on_delivered", "time")

    def __init__(
        self,
        network: PacketNetwork,
        path: List[int],
        position: int,
        on_delivered: Callable[[int, float], None],
        time: float,
    ) -> None:
        self.network = network
        self.path = path
        self.position = position
        self.on_delivered = on_delivered
        self.time = time

    def onward(self, time: float) -> _Transit:
        """The copy that reaches the next node at ``time``."""
        return _Transit(
            self.network, self.path, self.position + 1, self.on_delivered, time
        )

    def __call__(self) -> None:
        path = self.path
        following = self.position + 1
        if following == len(path):
            self.on_delivered(path[-1], self.time)
            return
        self.network._forward(
            path[following - 1],
            path[following],
            self.time,
            self,
            0,
            _Transit.onward,
        )


@dataclass
class TransferLog:
    """Aggregate transport statistics of one simulation."""

    transmissions: int = 0  # link-level message copies sent
    queueing_delay: float = 0.0  # total time spent waiting for links
    max_link_queue: float = 0.0  # worst single wait
    retransmissions: int = tally("link-layer ARQ retransmission attempts")

    def record_wait(self, wait: float) -> None:
        self.queueing_delay += wait
        self.max_link_queue = max(self.max_link_queue, wait)


class PacketNetwork:
    """Per-link serialized transport bound to one simulator instance."""

    def __init__(
        self,
        topology: Topology,
        simulator: DiscreteEventSimulator,
        routing: RoutingTable | None = None,
        transmission_time: float = 0.25,
        propagation_scale: float = 1.0,
        injector: FaultInjector | None = None,
        hop_retries: int = 0,
        telemetry: Telemetry | None = None,
    ):
        if transmission_time < 0:
            raise ValueError("transmission_time must be non-negative")
        if propagation_scale <= 0:
            raise ValueError("propagation_scale must be positive")
        if hop_retries < 0:
            raise ValueError("hop_retries must be non-negative")
        self.topology = topology
        self.simulator = simulator
        self.routing = routing or RoutingTable.from_topology(topology)
        self.transmission_time = transmission_time
        self.propagation_scale = propagation_scale
        self.injector = injector
        self.hop_retries = hop_retries
        self.telemetry = or_null(telemetry)
        self._busy_until: Dict[Tuple[int, int], float] = {}
        #: Propagation delay per directed link, filled on first use.
        self._propagation: Dict[Tuple[int, int], float] = {}
        self.log = TransferLog()
        self.telemetry.expose_tallies("net.link", self.log)

    #: Modelled payload size of one link-level copy.  The simulator has
    #: no byte-level content; this fixed size turns per-link copy
    #: counts into the bytes-per-link figures ``repro stats`` reports.
    MESSAGE_BYTES = 1024

    def _meter_copies(self, u: int, v: int, copies: int, wait: float) -> None:
        """Per-link accounting (only called when telemetry is live)."""
        link = f"{u}-{v}" if u <= v else f"{v}-{u}"
        telemetry = self.telemetry
        telemetry.counter(
            "net.link.transmissions",
            help="link-level message copies per (undirected) link",
            link=link,
        ).inc(copies)
        telemetry.counter(
            "net.link.bytes",
            help="modelled bytes per (undirected) link",
            link=link,
        ).inc(copies * self.MESSAGE_BYTES)
        if wait > 0:
            telemetry.histogram(
                "net.queue_wait",
                help="time spent waiting for a busy link",
            ).observe(wait)

    # -- link primitive ------------------------------------------------------

    def _forward(
        self,
        u: int,
        v: int,
        ready_time: float,
        on_arrival: Callable[[float], None] | _Transit,
        attempt: int = 0,
        entry: Callable[..., Callable[[], None]] = _Arrival,
    ) -> None:
        """Send one copy over the directed link (u, v).

        ``ready_time`` is when the message is available at ``u``; the
        copy departs when the link frees up, occupies it for the
        transmission time, and arrives after the propagation delay.
        The event list gets ``entry(on_arrival, time)`` for each copy
        that arrives (an :class:`_Arrival` by default; a path hop
        passes its transit and :meth:`_Transit.onward`).

        With a fault injector attached the copy may be silently
        dropped (lossy link, outage window, crashed endpoint),
        duplicated, or delayed.  A lost copy still occupied the link
        and counts as a transmission — the sender paid for it; a copy
        from a crashed sender never entered the link at all.

        With ``hop_retries > 0`` the link runs a simple ARQ: when no
        copy of a transmission arrives, the sender notices one link
        round trip later (no link-layer acknowledgment) and
        retransmits, up to the per-hop budget.  This masks random
        loss; sustained faults (outage windows, crashed endpoints)
        outlive the budget and are left to the end-to-end protocol.
        """
        key = (u, v)
        transmission_time = self.transmission_time
        busy = self._busy_until.get(key, 0.0)
        depart = busy if busy > ready_time else ready_time
        injector = self.injector
        if injector is None:
            arriving, extra_delay = 1, 0.0
        else:
            fate = injector.filter_transmission(u, v, depart)
            if not fate.sent:
                return
            arriving, extra_delay = fate.copies, fate.extra_delay
        wait = depart - ready_time
        if wait > 0:
            self.log.record_wait(wait)
        copies = arriving if arriving > 1 else 1
        self._busy_until[key] = depart + transmission_time * copies
        self.log.transmissions += copies
        if self.telemetry.enabled:
            self._meter_copies(u, v, copies, wait)
        propagation = self._propagation.get(key)
        if propagation is None:
            # First use of the link; ``edge_cost`` rejects a non-edge.
            propagation = self._propagation[key] = (
                self.routing.edge_cost(u, v) * self.propagation_scale
            )
        delivered_any = False
        for copy in range(arriving):
            arrival = (
                depart
                + transmission_time * (copy + 1)
                + propagation
                + extra_delay
            )
            if injector is not None and injector.arrival_blocked(v, arrival):
                continue
            delivered_any = True
            self.simulator.schedule_at(arrival, entry(on_arrival, arrival))
        if delivered_any or attempt >= self.hop_retries:
            return
        # Link-layer ARQ: one link round trip with no acknowledgment,
        # so the sender retransmits this copy.
        retry_ready = depart + transmission_time + 2.0 * propagation
        self.log.retransmissions += 1
        self.simulator.schedule_at(
            retry_ready,
            lambda: self._forward(
                u, v, retry_ready, on_arrival, attempt + 1, entry
            ),
        )

    # -- delivery patterns -------------------------------------------------------

    def send_unicast(
        self,
        source: int,
        target: int,
        on_delivered: Callable[[int, float], None],
    ) -> None:
        """Route one message hop-by-hop along the shortest path.

        ``on_delivered(target, time)`` fires at arrival.  Sending to
        oneself delivers immediately at the current time.
        """
        if source == target:
            now = self.simulator.now
            self.simulator.schedule(0.0, lambda: on_delivered(target, now))
            return
        self.send_along(self.routing.path(source, target), on_delivered)

    def send_along(
        self,
        path: Sequence[int],
        on_delivered: Callable[[int, float], None],
    ) -> None:
        """Forward one message hop-by-hop along an explicit node path.

        The reliable transport uses this to retransmit around known-dead
        links and nodes: the path need not be the routing table's
        shortest path, but every consecutive pair must be a topology
        edge.  A single-node path delivers immediately.
        """
        path = [int(node) for node in path]
        if not path:
            raise ValueError("path must contain at least one node")
        target = path[-1]
        if len(path) == 1:
            now = self.simulator.now
            self.simulator.schedule(0.0, lambda: on_delivered(target, now))
            return

        _Transit(self, path, 0, on_delivered, self.simulator.now)()

    def send_multicast(
        self,
        source: int,
        members: Sequence[int],
        on_delivered: Callable[[int, float], None],
        via: Optional[int] = None,
    ) -> None:
        """Flow one message down a multicast tree to every member.

        Dense mode (default): the tree is the shortest-path tree rooted
        at the publisher.  Sparse mode: pass ``via`` (the rendezvous
        point) — the message first travels publisher→rendezvous as a
        unicast, then flows down the shared tree rooted there.  Each
        relay forwards one copy per child link; members interior to the
        tree are delivered when the message passes them.
        """
        members = [int(m) for m in members]
        member_set = set(members)
        root = source if via is None else int(via)
        children: Dict[int, List[int]] = {}
        for u, v in self.routing.tree_edges(root, members):
            children.setdefault(u, []).append(v)

        def relay(node: int, ready_time: float) -> None:
            for child in children.get(node, []):
                def arrived(arrival: float, child: int = child) -> None:
                    if child in member_set:
                        on_delivered(child, arrival)
                    relay(child, arrival)

                self._forward(node, child, ready_time, arrived)

        def start_tree(ready_time: float) -> None:
            if root in member_set and root != source:
                on_delivered(root, ready_time)
            relay(root, ready_time)

        if root in member_set and root == source:
            now = self.simulator.now
            self.simulator.schedule(0.0, lambda: on_delivered(source, now))
        if via is None or root == source:
            relay(root, self.simulator.now)
        else:
            # Publisher -> rendezvous leg, then the shared tree.
            self.send_unicast(
                source, root, lambda _node, time: start_tree(time)
            )
