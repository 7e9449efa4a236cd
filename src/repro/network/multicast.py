"""Delivery-cost accounting for the distribution-method experiments.

Implements the paper's cost normalization (Section 5.2):

- **0% improvement** — every message is delivered by unicasts to
  exactly the interested subscribers.
- **100% improvement** — every message is delivered over a dense-mode
  multicast tree built *for exactly its interested subscribers* (the
  unattainable-in-practice bound, since it would need up to ``O(k^N)``
  precomputed groups).

A delivery scheme's improvement percentage is therefore::

    100 * (unicast_total - scheme_total) / (unicast_total - ideal_total)

summed over the full publication workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..telemetry.base import Telemetry, or_null
from .routing import RoutingTable, SurvivingGraphs, path_cost
from .topology import Topology

__all__ = ["DeliveryCostModel", "CostTally", "DegradedDelivery"]


@dataclass
class CostTally:
    """Accumulated per-workload delivery costs.

    ``scheme`` is whatever delivery strategy is being evaluated;
    ``unicast`` and ``ideal`` are the paper's 0%/100% reference costs
    for the same messages.
    """

    messages: int = 0
    deliveries: int = 0
    scheme: float = 0.0
    unicast: float = 0.0
    ideal: float = 0.0
    multicasts_sent: int = 0
    unicasts_sent: int = 0

    def add(
        self,
        scheme_cost: float,
        unicast_cost: float,
        ideal_cost: float,
        recipients: int,
        used_multicast: bool,
    ) -> None:
        """Record one delivered message."""
        self.messages += 1
        self.deliveries += recipients
        self.scheme += scheme_cost
        self.unicast += unicast_cost
        self.ideal += ideal_cost
        if used_multicast:
            self.multicasts_sent += 1
        else:
            self.unicasts_sent += 1

    def skip(self) -> None:
        """Record a message with no interested subscribers (not sent)."""
        self.messages += 1

    @property
    def improvement_percent(self) -> float:
        """Paper's normalized improvement over all-unicast delivery."""
        denom = self.unicast - self.ideal
        if denom <= 0.0:
            # Unicast is already optimal for this workload; any scheme
            # matching it earns the full score, anything worse earns 0.
            return 100.0 if self.scheme <= self.unicast else 0.0
        return 100.0 * (self.unicast - self.scheme) / denom

    @property
    def average_message_cost(self) -> float:
        """Mean scheme cost per published message."""
        if self.messages == 0:
            return 0.0
        return self.scheme / self.messages

    def merge(self, other: CostTally) -> CostTally:
        """Sum two tallies (for sharded workloads)."""
        return CostTally(
            messages=self.messages + other.messages,
            deliveries=self.deliveries + other.deliveries,
            scheme=self.scheme + other.scheme,
            unicast=self.unicast + other.unicast,
            ideal=self.ideal + other.ideal,
            multicasts_sent=self.multicasts_sent + other.multicasts_sent,
            unicasts_sent=self.unicasts_sent + other.unicasts_sent,
        )


class DeliveryCostModel:
    """Computes unicast / multicast / ideal costs for one topology.

    Wraps a :class:`~repro.network.routing.RoutingTable` and adds the
    paper's three delivery primitives.  Multicast group trees are
    memoized per ``(source, group)`` because the same publisher sends
    to the same precomputed group for many events.

    Three multicast mechanisms are supported.  Section 5.2 describes
    the two router-supported modes and the paper's experiments assume
    dense mode; Section 1 notes the results are also "relevant to ...
    application level" multicasting (ALMI, reference [14]), which the
    overlay mode models:

    - ``"dense"`` — the routing tree is a shortest-path tree rooted at
      the *publisher*; per-group state grows with publishers x groups.
    - ``"sparse"`` — a single *shared* tree per group, rooted at a
      rendezvous point (chosen here as the group's cost-median
      member); the publisher first unicasts to the rendezvous point,
      then the message flows down the shared tree.  State is
      per-group only, at the price of non-optimal paths.
    - ``"overlay"`` — application-level multicast: no router support at
      all.  Group members form an overlay whose virtual links are
      unicast paths; the delivery tree is the minimum spanning tree of
      the complete member graph under shortest-path distances, entered
      from the publisher via its cheapest unicast to any member.  Every
      overlay edge is paid at its full underlying unicast cost, so
      shared physical links are charged repeatedly — the inefficiency
      that distinguishes ALM from router multicast.
    """

    #: Recognized multicast mechanisms.
    MODES = ("dense", "sparse", "overlay")

    def __init__(
        self,
        topology: Topology,
        multicast_mode: str = "dense",
        telemetry: Optional[Telemetry] = None,
    ):
        if multicast_mode not in self.MODES:
            raise ValueError(
                f"multicast_mode must be one of {self.MODES}, got "
                f"{multicast_mode!r}"
            )
        self.topology = topology
        self.multicast_mode = multicast_mode
        self.telemetry = or_null(telemetry)
        self.routing = RoutingTable.from_topology(topology)
        self._group_tree_cache: dict[tuple[int, frozenset[int]], float] = {}
        self._shared_tree_cache: dict[frozenset[int], tuple[int, float]] = {}
        self._overlay_tree_cache: dict[frozenset[int], float] = {}

    def unicast_cost(self, source: int, recipients: Iterable[int]) -> float:
        """Cost of one unicast per recipient."""
        return self.routing.unicast_cost(source, recipients)

    def multicast_cost(
        self, source: int, group_members: Iterable[int]
    ) -> float:
        """Cost of a group multicast under the configured router mode.

        The message reaches every group member — interested or not;
        that waste is exactly what the distribution-method threshold
        trades against the unicast fan-out cost.
        """
        members = _member_key(group_members)
        if self.multicast_mode == "sparse":
            rendezvous, tree_cost = self._shared_tree(members)
            return self.routing.distance(source, rendezvous) + tree_cost
        if self.multicast_mode == "overlay":
            tree_cost = self._overlay_tree_cost(members)
            if int(source) in members:
                return tree_cost
            entry = min(
                self.routing.distance(source, m) for m in members
            )
            return entry + tree_cost
        key = (int(source), members)
        cached = self._group_tree_cache.get(key)
        if cached is None:
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "cost.group_tree.misses",
                    help="dense-mode group trees built",
                ).inc()
            cached = self.routing.shortest_path_tree_cost(source, members)
            self._group_tree_cache[key] = cached
        elif self.telemetry.enabled:
            self.telemetry.counter(
                "cost.group_tree.hits",
                help="dense-mode group trees served from cache",
            ).inc()
        return cached

    def rendezvous_point(self, group_members: Iterable[int]) -> int:
        """The sparse-mode rendezvous point chosen for a group.

        The cost-median member: the group member minimizing the total
        shortest-path cost to all members (a standard core-selection
        heuristic for core-based shared trees).
        """
        rendezvous, _ = self._shared_tree(_member_key(group_members))
        return rendezvous

    def _shared_tree(self, members: frozenset[int]) -> tuple[int, float]:
        if not members:
            raise ValueError("cannot build a shared tree for no members")
        cached = self._shared_tree_cache.get(members)
        if cached is None:
            rendezvous = min(
                members,
                key=lambda m: (self.routing.unicast_cost(m, members), m),
            )
            cost = self.routing.shortest_path_tree_cost(
                rendezvous, members
            )
            cached = (rendezvous, cost)
            self._shared_tree_cache[members] = cached
        return cached

    def _overlay_tree_cost(self, members: frozenset[int]) -> float:
        """MST of the complete overlay graph (Prim's, O(m^2))."""
        if not members:
            raise ValueError("cannot build an overlay for no members")
        cached = self._overlay_tree_cache.get(members)
        if cached is not None:
            return cached
        nodes = sorted(members)
        in_tree = {nodes[0]}
        best = {
            node: self.routing.distance(nodes[0], node)
            for node in nodes[1:]
        }
        total = 0.0
        while best:
            node = min(best, key=lambda n: (best[n], n))
            total += best.pop(node)
            in_tree.add(node)
            for other in best:
                distance = self.routing.distance(node, other)
                if distance < best[other]:
                    best[other] = distance
        self._overlay_tree_cache[members] = total
        return total

    def ideal_cost(self, source: int, recipients: Iterable[int]) -> float:
        """Cost of a purpose-built multicast to exactly the recipients.

        This is the 100%-improvement reference: a dense-mode tree
        spanning just the interested subscribers.  Uncached: at 1 000
        subscriptions, 8 072 of 8 074 sent events had a distinct
        (publisher, recipients) pair; a call is a fixed number of numpy
        passes over the publisher's ancestor table.  The reference is
        mode-independent, so improvements compare across modes.
        """
        return self.routing.shortest_path_tree_cost(source, recipients)

    def clear_cache(self) -> None:
        """Drop memoized group trees (e.g. after groups change)."""
        self._group_tree_cache.clear()
        self._shared_tree_cache.clear()
        self._overlay_tree_cache.clear()

    # -- graceful degradation under faults ---------------------------------

    def degraded_unicast_cost(
        self,
        source: int,
        recipients: Iterable[int],
        dead_links: Iterable[Tuple[int, int]] = (),
        dead_nodes: Iterable[int] = (),
    ) -> DegradedDelivery:
        """Unicast fan-out over whatever part of the network survives.

        Each recipient is charged its shortest path over the surviving
        graph (which may be pricier than the healthy-network path);
        recipients that are dead or partitioned away are reported as
        unreachable rather than silently skipped.
        """
        down_links = _normalize_links(dead_links)
        down_nodes = frozenset(int(n) for n in dead_nodes)
        if not down_links and not down_nodes:
            # Nothing is dead: charge the exact healthy-path cost so a
            # neutral fault snapshot is bit-for-bit free.
            recipients = [int(r) for r in recipients]
            return DegradedDelivery(
                cost=self.unicast_cost(source, recipients),
                reached=tuple(recipients),
                repaired=(),
                unreachable=(),
            )
        graph = self.topology.graph
        # One surviving graph for this snapshot, every recipient's
        # detour found on it.
        surviving = SurvivingGraphs(graph)
        cost = 0.0
        reached: List[int] = []
        repaired: List[int] = []
        unreachable: List[int] = []
        for recipient in recipients:
            recipient = int(recipient)
            path = surviving.path(source, recipient, down_nodes, down_links)
            if path is None:
                unreachable.append(recipient)
                continue
            leg = path_cost(graph, path)
            cost += leg
            healthy = self.routing.distance(source, recipient)
            if leg > healthy:
                repaired.append(recipient)
            else:
                reached.append(recipient)
        self._record_degraded("unicast", repaired, unreachable)
        return DegradedDelivery(
            cost=cost,
            reached=tuple(reached),
            repaired=tuple(repaired),
            unreachable=tuple(unreachable),
        )

    def degraded_multicast_cost(
        self,
        source: int,
        group_members: Iterable[int],
        interested: Optional[Iterable[int]] = None,
        dead_links: Iterable[Tuple[int, int]] = (),
        dead_nodes: Iterable[int] = (),
    ) -> DegradedDelivery:
        """Dense-mode multicast with tree repair and unicast fallback.

        The message flows down the healthy dense-mode tree as far as it
        can: edges whose link or endpoint is dead prune their whole
        subtree.  Interested subscribers stranded by the pruning are
        then repaired individually — a unicast over the surviving graph
        (rerouted via :mod:`repro.network.routing`), charged on top of
        the tree cost — or reported unreachable when no surviving path
        exists.  Uninterested stranded group members are simply not
        repaired: nobody needed the message there.
        """
        down_links = _normalize_links(dead_links)
        down_nodes = frozenset(int(n) for n in dead_nodes)
        members = _member_key(group_members)
        if not down_links and not down_nodes:
            # Nothing is dead: the configured (possibly sparse/overlay)
            # multicast runs untouched, bit-for-bit.
            return DegradedDelivery(
                cost=self.multicast_cost(source, members),
                reached=tuple(sorted(members)),
                repaired=(),
                unreachable=(),
            )
        wanted = (
            members
            if interested is None
            else {int(n) for n in interested}
        )
        graph = self.topology.graph

        # Walk the healthy tree, pruning at the first dead element.
        # Members ascending, so the surviving edges are summed in one
        # order whether the caller held a tuple or a set.
        children: dict[int, List[int]] = {}
        for u, v in self.routing.tree_edges(source, sorted(members)):
            children.setdefault(u, []).append(v)
        cost = 0.0
        alive_reach: set[int] = set()
        if source not in down_nodes:
            alive_reach.add(source)
            frontier = [source]
            while frontier:
                node = frontier.pop()
                for child in children.get(node, []):
                    key = (node, child) if node <= child else (child, node)
                    if key in down_links or child in down_nodes:
                        continue
                    cost += graph.edges[node, child]["cost"]
                    alive_reach.add(child)
                    frontier.append(child)

        reached = sorted(members & alive_reach)
        stranded = sorted(wanted - alive_reach - {int(source)})
        repaired: List[int] = []
        unreachable: List[int] = []
        surviving = SurvivingGraphs(graph)
        for subscriber in stranded:
            path = surviving.path(source, subscriber, down_nodes, down_links)
            if path is None:
                unreachable.append(subscriber)
            else:
                cost += path_cost(graph, path)
                repaired.append(subscriber)
        self._record_degraded("multicast", repaired, unreachable)
        return DegradedDelivery(
            cost=cost,
            reached=tuple(reached),
            repaired=tuple(repaired),
            unreachable=tuple(unreachable),
        )

    def _record_degraded(
        self,
        method: str,
        repaired: Sequence[int],
        unreachable: Sequence[int],
    ) -> None:
        """Meter one degraded delivery's repair/partition outcome."""
        if not self.telemetry.enabled:
            return
        self.telemetry.counter(
            "cost.degraded.deliveries",
            help="deliveries costed against a fault snapshot",
            method=method,
        ).inc()
        if repaired:
            self.telemetry.counter(
                "cost.degraded.repaired",
                help="recipients rescued by detour or fallback unicast",
            ).inc(len(repaired))
        if unreachable:
            self.telemetry.counter(
                "cost.degraded.unreachable",
                help="recipients partitioned away entirely",
            ).inc(len(unreachable))


def _member_key(group_members: Iterable[int]) -> frozenset[int]:
    """The members as a cache key.

    A ``frozenset`` is used as it is: a group's own
    :attr:`~repro.clustering.groups.MulticastGroup.member_set` then
    hashes once and matches its cache entries by identity, and every
    entry for the group shares that one object.
    """
    if isinstance(group_members, frozenset):
        return group_members
    return frozenset(int(m) for m in group_members)


def _normalize_links(
    links: Iterable[Tuple[int, int]]
) -> frozenset[Tuple[int, int]]:
    """Canonical (min, max) form for undirected link identities."""
    return frozenset(
        (int(u), int(v)) if int(u) <= int(v) else (int(v), int(u))
        for u, v in links
    )


@dataclass(frozen=True)
class DegradedDelivery:
    """Outcome of one delivery over a partially-failed network.

    ``reached`` got the message at normal cost (tree or healthy path);
    ``repaired`` needed a detour or fallback unicast (their extra cost
    is already included in ``cost``); ``unreachable`` could not be
    served at all while the faults last.
    """

    cost: float
    reached: Tuple[int, ...]
    repaired: Tuple[int, ...]
    unreachable: Tuple[int, ...]

    @property
    def delivered(self) -> int:
        return len(self.reached) + len(self.repaired)
