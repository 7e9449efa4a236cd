"""The wire against a test-local copy of the implementation it replaced.

The per-hop path (``PacketNetwork._forward`` / ``send_along``), the
fault injector's per-transmission answers (``filter_transmission``,
``node_down``, ``link_down``, ``arrival_blocked``, ``state_at``) and
the detour around dead components were rewritten to allocate less and
to answer static questions from tables.  Event order, tie-breaks, float
expressions and the order of RNG draws are the contract — every chaos
digest hangs off them — so this file keeps the straightforward versions
(closures per hop, every window tested on every call, Dijkstra through
a filtered view) and requires ``==`` on everything observable for
Hypothesis-generated plans and traffic.
"""

from __future__ import annotations

import heapq
import math
import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import (
    _DELIVER,
    _LOST,
    _SENDER_DOWN,
    BrokerCrash,
    BrokerKill,
    FaultInjector,
    FaultPlan,
    FaultState,
    LinkFault,
    LinkOutage,
    TransmissionFate,
    _link_key,
)
from repro.faults.reliable import ReliableTransport
from repro.network import RoutingTable, TransitStubGenerator, TransitStubParams
from repro.network.routing import surviving_path
from repro.network.topology import Topology
from repro.simulation import DiscreteEventSimulator, PacketNetwork

# -- the reference implementations (the parent's code, kept verbatim) ---------


class ReferenceSimulator(DiscreteEventSimulator):
    """Peeks at the head of the queue before every pop."""

    def run(self, until=None):
        while self._queue:
            time, _, callback = self._queue[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            heapq.heappop(self._queue)
            self._now = time
            self._processed += 1
            callback()
        if until is not None and until > self._now:
            self._now = until
        return self._now


class ReferenceInjector(FaultInjector):
    """Every window tested on every call; no table beyond the indexes."""

    def node_down(self, node, time):
        node = int(node)
        kill = self._kills.get(node)
        if kill is not None and time >= kill:
            return True
        windows = self._crashes.get(node)
        if not windows:
            return False
        return any(w.active(time) for w in windows)

    def link_down(self, u, v, time):
        windows = self._outages.get(_link_key(u, v))
        if not windows:
            return False
        return any(w.active(time) for w in windows)

    def arrival_blocked(self, node, time):
        if self.node_down(node, time):
            self.stats.receiver_down_drops += 1
            return True
        return False

    def state_at(self, time):
        dead_nodes = frozenset(
            node
            for node, windows in self._crashes.items()
            if any(w.active(time) for w in windows)
        ) | frozenset(
            node for node, at in self._kills.items() if time >= at
        )
        dead_links = frozenset(
            key
            for key, windows in self._outages.items()
            if any(w.active(time) for w in windows)
        ) | self._permanently_dead
        return FaultState(
            time=time, dead_nodes=dead_nodes, dead_links=dead_links
        )

    def filter_transmission(self, u, v, time):
        self.stats.transmissions_seen += 1
        if self.node_down(u, time):
            self.stats.sender_down_drops += 1
            return _SENDER_DOWN
        if self.link_down(u, v, time):
            self.stats.outage_drops += 1
            return _LOST
        fault = self._faults.get(_link_key(u, v))
        if fault is not None:
            loss, duplicate, delay = fault.loss, fault.duplicate, fault.delay
        else:
            plan = self.plan
            loss = plan.default_loss
            duplicate = plan.default_duplicate
            delay = plan.default_delay
        if loss > 0.0 and (loss >= 1.0 or self._rng.random() < loss):
            self.stats.random_drops += 1
            return _LOST
        copies = 1
        if duplicate > 0.0 and self._rng.random() < duplicate:
            self.stats.duplicates_injected += 1
            copies = 2
        extra_delay = 0.0
        if delay > 0.0:
            extra_delay = float(self._rng.random() * delay)
            self.stats.delays_injected += 1
        if copies == 1 and extra_delay == 0.0:
            return _DELIVER
        return TransmissionFate(copies=copies, extra_delay=extra_delay)


class ReferenceNetwork(PacketNetwork):
    """Two closures per hop and ``edge_cost`` per transmission."""

    def _forward(self, u, v, ready_time, on_arrival, attempt=0):
        key = (u, v)
        if self.injector is None:
            depart = max(ready_time, self._busy_until.get(key, 0.0))
            wait = depart - ready_time
            if wait > 0:
                self.log.record_wait(wait)
            self._busy_until[key] = depart + self.transmission_time
            propagation = (
                self.routing.edge_cost(u, v) * self.propagation_scale
            )
            arrival = depart + self.transmission_time + propagation
            self.log.transmissions += 1
            self.simulator.schedule_at(arrival, lambda: on_arrival(arrival))
            return

        depart = max(ready_time, self._busy_until.get(key, 0.0))
        fate = self.injector.filter_transmission(u, v, depart)
        if not fate.sent:
            return
        wait = depart - ready_time
        if wait > 0:
            self.log.record_wait(wait)
        copies = max(1, fate.copies)
        self._busy_until[key] = depart + self.transmission_time * copies
        self.log.transmissions += copies
        propagation = self.routing.edge_cost(u, v) * self.propagation_scale
        delivered_any = False
        if fate.copies:
            for copy in range(fate.copies):
                arrival = (
                    depart
                    + self.transmission_time * (copy + 1)
                    + propagation
                    + fate.extra_delay
                )
                if self.injector.arrival_blocked(v, arrival):
                    continue
                delivered_any = True
                self.simulator.schedule_at(
                    arrival, lambda a=arrival: on_arrival(a)
                )
        if delivered_any or attempt >= self.hop_retries:
            return
        retry_ready = depart + self.transmission_time + 2.0 * propagation
        self.log.retransmissions += 1
        self.simulator.schedule_at(
            retry_ready,
            lambda: self._forward(u, v, retry_ready, on_arrival, attempt + 1),
        )

    def send_along(self, path, on_delivered):
        path = [int(node) for node in path]
        if not path:
            raise ValueError("path must contain at least one node")
        target = path[-1]
        if len(path) == 1:
            now = self.simulator.now
            self.simulator.schedule(0.0, lambda: on_delivered(target, now))
            return

        def hop(position, ready_time):
            if position == len(path) - 1:
                on_delivered(target, ready_time)
                return
            self._forward(
                path[position],
                path[position + 1],
                ready_time,
                lambda arrival: hop(position + 1, arrival),
            )

        hop(0, self.simulator.now)


def reference_surviving_path(graph, source, target, dead_links, dead_nodes):
    """``routing.surviving_path`` as it was: Dijkstra through a view."""
    source, target = int(source), int(target)
    if source in dead_nodes or target in dead_nodes:
        return None
    if source == target:
        return [source]
    hidden_edges = [
        pair for (u, v) in dead_links for pair in ((u, v), (v, u))
    ]
    try:
        alive = nx.restricted_view(graph, list(dead_nodes), hidden_edges)
        return [
            int(n)
            for n in nx.dijkstra_path(alive, source, target, weight="cost")
        ]
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def reference_alternate_path(graph, routing, state, source, target):
    """``ReliableTransport._alternate_path`` as it was, minus its cache."""
    if state.clear:
        return None
    hidden_edges = [
        pair for (u, v) in state.dead_links for pair in ((u, v), (v, u))
    ]
    try:
        alive = nx.restricted_view(
            graph, list(state.dead_nodes), hidden_edges
        )
        path = [
            int(n)
            for n in nx.dijkstra_path(alive, source, target, weight="cost")
        ]
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        path = None
    if path is not None and path == routing.path(source, target):
        path = None
    return path


# -- topologies ------------------------------------------------------------------


def grid_topology(rows, cols, seed):
    """A grid with small integer costs (many equal-cost paths) whose
    edges go in in a shuffled order, so a node's adjacency order is not
    the order a rebuild by iteration would give it."""
    rng = random.Random(seed)
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    rng.shuffle(edges)
    graph = nx.Graph()
    graph.add_nodes_from(range(rows * cols))
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        graph.add_edge(u, v, cost=float(rng.randint(1, 3)))
    for node in graph.nodes():
        graph.nodes[node].update(kind="stub", block=0, stub=0)
    return Topology(
        graph=graph,
        transit_nodes=[[]],
        stub_members=[list(range(rows * cols))],
        stub_block=[0],
    )


WIRE = grid_topology(3, 4, seed=5)
WIRE_ROUTING = RoutingTable.from_topology(WIRE)
WIRE_NODES = WIRE.num_nodes
WIRE_EDGES = sorted(WIRE.graph.edges)

TIES = grid_topology(5, 5, seed=9)
STUBS = TransitStubGenerator(
    TransitStubParams(
        transit_blocks=3,
        transit_nodes_per_block=2,
        stubs_per_transit_node=1,
        nodes_per_stub=8,
        size_spread=1,
    ),
    seed=11,
).generate()

# -- strategies ------------------------------------------------------------------

#: A quarter grid: link occupancy is 0.25 and costs are integers, so
#: departures and arrivals land exactly on window edges all the time.
grid_times = st.integers(0, 120).map(lambda k: k / 4)
rates = st.sampled_from([0.0, 0.0, 0.0, 0.3, 0.5, 1.0])
delays = st.sampled_from([0.0, 0.0, 0.25, 1.7])
nodes = st.integers(0, WIRE_NODES - 1)
edges = st.sampled_from(WIRE_EDGES)


@st.composite
def windows(draw):
    start = draw(grid_times)
    return start, start + draw(st.integers(1, 60)) / 4


@st.composite
def plans(draw):
    link_faults = [
        LinkFault(*draw(edges), draw(rates), draw(rates), draw(delays))
        for _ in range(draw(st.integers(0, 3)))
    ]
    outages = [
        LinkOutage(*draw(edges), *draw(windows()))
        for _ in range(draw(st.integers(0, 4)))
    ]
    crashes = [
        BrokerCrash(draw(nodes), *draw(windows()))
        for _ in range(draw(st.integers(0, 4)))
    ]
    kills = [
        BrokerKill(draw(nodes), draw(grid_times))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        default_loss=draw(rates),
        default_duplicate=draw(rates),
        default_delay=draw(delays),
        link_faults=tuple(link_faults),
        outages=tuple(outages),
        crashes=tuple(crashes),
        broker_kills=tuple(kills),
    )


@st.composite
def walks(draw):
    """An explicit path: a routing path, or a walk that may revisit."""
    if draw(st.booleans()):
        return WIRE_ROUTING.path(draw(nodes), draw(nodes))
    node = draw(nodes)
    walk = [node]
    for _ in range(draw(st.integers(0, 5))):
        node = draw(st.sampled_from(list(WIRE.graph.adj[node])))
        walk.append(node)
    return walk


sends = st.one_of(
    st.tuples(st.just("unicast"), grid_times, nodes, nodes),
    st.tuples(st.just("along"), grid_times, walks()),
    st.tuples(
        st.just("multicast"),
        grid_times,
        nodes,
        st.lists(nodes, min_size=1, max_size=4, unique=True),
        st.none() | nodes,
    ),
)


REFERENCE = (ReferenceSimulator, ReferenceNetwork, ReferenceInjector)
CURRENT = (DiscreteEventSimulator, PacketNetwork, FaultInjector)


def play(classes, plan, hop_retries, traffic, injector=None):
    simulator_cls, network_cls, injector_cls = classes
    sim = simulator_cls()
    if injector is None and plan is not None:
        injector = injector_cls(plan)
    network = network_cls(
        WIRE,
        sim,
        routing=WIRE_ROUTING,
        injector=injector,
        hop_retries=hop_retries,
    )
    calls = []

    def launch(index, send):
        def delivered(node, time):
            calls.append((index, node, time))

        kind = send[0]
        if kind == "unicast":
            network.send_unicast(send[2], send[3], delivered)
        elif kind == "along":
            network.send_along(send[2], delivered)
        else:
            network.send_multicast(send[2], send[3], delivered, via=send[4])

    for index, send in enumerate(traffic):
        sim.schedule_at(
            send[1], lambda index=index, send=send: launch(index, send)
        )
    final = sim.run()
    return (
        calls,
        network.log,
        None if injector is None else injector.stats,
        sim.events_processed,
        final,
        None if injector is None else (
            injector._rng.bit_generator.state
            if injector_cls is ReferenceInjector
            # Draws come a block at a time; this is the state as of the
            # last double the run used.
            else injector.stream_state()
        ),
    )


class TestWire:
    @settings(max_examples=150, deadline=None)
    @given(
        st.none() | plans(),
        st.integers(0, 2),
        st.lists(sends, min_size=1, max_size=30),
    )
    def test_traffic_plays_out_identically(self, plan, hop_retries, traffic):
        expected = play(REFERENCE, plan, hop_retries, traffic)
        got = play(CURRENT, plan, hop_retries, traffic)
        # (send, node, time) callbacks, in order, floats compared with ==.
        assert got[0] == expected[0]
        assert got[1:] == expected[1:]

    @settings(max_examples=50, deadline=None)
    @given(plans(), st.integers(0, 2), st.lists(sends, min_size=1, max_size=30))
    def test_a_reset_injector_plays_the_run_again(
        self, plan, hop_retries, traffic
    ):
        """``reset`` restarts the stream, whatever of a block was left."""
        injector = FaultInjector(plan)
        first = play(CURRENT, plan, hop_retries, traffic, injector)
        injector.reset()
        assert play(CURRENT, plan, hop_retries, traffic, injector) == first

    @settings(max_examples=50, deadline=None)
    @given(plans(), st.integers(0, 2), st.lists(sends, min_size=1, max_size=8))
    def test_until_stops_at_the_same_event(self, plan, hop_retries, traffic):
        """``run(until)`` peeks; ``run()`` does not.  Same events."""

        def stepped(classes):
            simulator_cls, network_cls, injector_cls = classes
            sim = simulator_cls()
            network = network_cls(
                WIRE,
                sim,
                routing=WIRE_ROUTING,
                injector=injector_cls(plan),
                hop_retries=hop_retries,
            )
            calls = []
            for send in traffic:
                if send[0] == "unicast":
                    network.send_unicast(
                        send[2], send[3], lambda n, t: calls.append((n, t))
                    )
            seen = []
            for until in (2.0, 2.0, 7.25, 30.0):
                seen.append((sim.run(until), sim.events_processed, sim.pending))
            seen.append((sim.run(), sim.events_processed, sim.pending))
            return calls, seen

        assert stepped(CURRENT) == stepped(REFERENCE)


def _edge_neighbourhood(time):
    return [
        time,
        math.nextafter(time, -math.inf),
        math.nextafter(time, math.inf),
    ]


class TestInjectorTables:
    @settings(max_examples=150, deadline=None)
    @given(
        plans(),
        st.lists(
            st.one_of(
                grid_times,
                grid_times.flatmap(
                    lambda t: st.sampled_from(_edge_neighbourhood(t))
                ),
                st.floats(-5.0, 60.0),
            ),
            min_size=1,
            max_size=25,
        ),
    )
    def test_state_and_window_queries(self, plan, times):
        """``state_at`` (memoised per interval) and the point queries,
        in generated — not sorted — time order, on and beside edges."""
        injector = FaultInjector(plan)
        reference = ReferenceInjector(plan)
        for time in times:
            assert injector.state_at(time) == reference.state_at(time)
            for node in range(WIRE_NODES):
                assert injector.node_down(node, time) == reference.node_down(
                    node, time
                )
                assert injector.node_killed(
                    node, time
                ) == reference.node_killed(node, time)
            for u, v in WIRE_EDGES:
                assert injector.link_down(v, u, time) == reference.link_down(
                    v, u, time
                )
                assert injector.arrival_blocked(
                    u, time
                ) == reference.arrival_blocked(u, time)
        assert injector.stats == reference.stats


class _Detector:
    """A failure detector that reports whatever state it was handed."""

    def __init__(self):
        self.state = FaultState(0.0, frozenset(), frozenset())

    def state_at(self, time):
        return self.state


@st.composite
def dead_parts(draw, topology):
    graph = topology.graph
    edge_list = sorted(graph.edges)
    dead_nodes = draw(
        st.frozensets(st.integers(0, topology.num_nodes - 1), max_size=4)
    )
    dead_links = draw(
        st.frozensets(st.sampled_from(edge_list), max_size=6)
    )
    return dead_nodes, dead_links


def detour_cases(topology):
    pairs = st.tuples(
        st.integers(0, topology.num_nodes - 1),
        st.integers(0, topology.num_nodes - 1),
    )
    return st.lists(
        st.tuples(dead_parts(topology), st.lists(pairs, min_size=1, max_size=6)),
        min_size=1,
        max_size=3,
    )


def check_detours(topology, cases, flip):
    graph = topology.graph
    network = PacketNetwork(topology, DiscreteEventSimulator())
    detector = _Detector()
    transport = ReliableTransport(network, detector=detector)
    # Twice over the same states: the second pass is answered from
    # whatever the transport keeps per state.
    for (dead_nodes, dead_links), pairs in cases * 2:
        detector.state = FaultState(
            time=0.0,
            dead_nodes=dead_nodes,
            dead_links=frozenset(_link_key(u, v) for u, v in dead_links),
        )
        # ``surviving_path`` takes links in any orientation.
        oriented = {(v, u) if flip else (u, v) for u, v in dead_links}
        for source, target in pairs:
            assert transport._alternate_path(
                source, target
            ) == reference_alternate_path(
                graph, network.routing, detector.state, source, target
            )
            assert surviving_path(
                graph, source, target, oriented, dead_nodes
            ) == reference_surviving_path(
                graph, source, target, oriented, dead_nodes
            )


class TestDetours:
    @settings(max_examples=120, deadline=None)
    @given(detour_cases(TIES), st.booleans())
    def test_equal_cost_grid_node_for_node(self, cases, flip):
        """Integer costs: Dijkstra's ties decide most of these paths."""
        check_detours(TIES, cases, flip)

    @settings(max_examples=60, deadline=None)
    @given(detour_cases(STUBS), st.booleans())
    def test_transit_stub_node_for_node(self, cases, flip):
        check_detours(STUBS, cases, flip)
