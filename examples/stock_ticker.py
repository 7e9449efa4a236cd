#!/usr/bin/env python3
"""The Gryphon stock-ticker scenario, subscription by subscription.

Recreates the paper's motivating example (Section 1): subscribers
express conjunctions of range predicates over {bst, name, quote,
volume} — e.g. "all IBM trades with 75 < price <= 80 and volume >=
1000" — and the system matches each published trade to exactly the
interested parties, deciding per event between unicast and multicast.

This example builds the predicates by hand (including a multi-range
predicate that gets decomposed into several rectangles), publishes a
small trade tape, and prints a human-readable delivery log.

Run:  python examples/stock_ticker.py
"""

import numpy as np

from repro import (
    ForgyKMeansClustering,
    PubSubBroker,
    SubscriptionTable,
    ThresholdPolicy,
    TransitStubGenerator,
    TransitStubParams,
)
from repro.core import DeliveryMethod, Event
from repro.geometry import FULL_LINE, Interval, parse_predicate
from repro.workload import BST_CODES, bst_interval

# Stock names are linearized to integer codes (paper Section 1: "even
# attributes such as name ... can be indexed").
STOCKS = {"IBM": 1, "MSFT": 2, "ORCL": 3, "SUNW": 4}


def name_equals(stock: str) -> Interval:
    """Equality predicate on the linearized name axis."""
    code = STOCKS[stock]
    return Interval(code - 1.0, float(code))


def main() -> None:
    topology = TransitStubGenerator(
        TransitStubParams(
            transit_blocks=3,
            transit_nodes_per_block=2,
            stubs_per_transit_node=1,
            nodes_per_stub=10,
        ),
        seed=3,
    ).generate()
    stub_nodes = topology.all_stub_nodes()

    table = SubscriptionTable(ndim=4)

    # The paper's flagship subscription: IBM, 75 < price <= 80,
    # volume >= 1000, any transaction type.
    alice = stub_nodes[0]
    table.add_predicates(
        alice,
        [
            [FULL_LINE],
            [name_equals("IBM")],
            [parse_predicate("between", 75.0, 80.0)],
            [parse_predicate(">=", 1000.0)],
        ],
    )

    # A multi-range predicate: MSFT buys at (20,25] OR (30,35] — this
    # decomposes into two rectangles automatically.
    bob = stub_nodes[5]
    table.add_predicates(
        bob,
        [
            [bst_interval("B")],
            [name_equals("MSFT")],
            [Interval(20.0, 25.0), Interval(30.0, 35.0)],
            [FULL_LINE],
        ],
    )

    # A broad market-watcher: every large trade (bst == 3 and
    # volume >= 50000), any stock.
    carol = stub_nodes[12]
    table.add_predicates(
        carol,
        [
            [parse_predicate("==", 3.0)],
            [FULL_LINE],
            [FULL_LINE],
            [parse_predicate(">=", 50000.0)],
        ],
    )

    # Plus a crowd of IBM price-band watchers to make multicast useful.
    rng = np.random.default_rng(1)
    for node in stub_nodes[15:45]:
        lo = float(rng.uniform(70, 78))
        table.add_predicates(
            node,
            [
                [FULL_LINE],
                [name_equals("IBM")],
                [Interval(lo, lo + rng.uniform(2, 6))],
                [FULL_LINE],
            ],
        )

    print(f"{len(table)} subscription rectangles from "
          f"{len(table.subscribers)} subscribers")

    broker = PubSubBroker.preprocess(
        topology,
        table,
        ForgyKMeansClustering(),
        num_groups=4,
        cells_per_dim=8,
        policy=ThresholdPolicy(threshold=0.15),
        # Pin the grid to the trading domain so every publishable trade
        # falls into a real cell instead of the catchall.
        grid_frame=((0.0, 0.0, 0.0, 0.0), (3.0, 4.0, 120.0, 100_000.0)),
    )

    # A small tape of trades: (bst, name, price, volume).
    tape = [
        ("T", "IBM", 78.5, 2_000),
        ("T", "IBM", 82.0, 5_000),   # above every price band
        ("B", "MSFT", 22.0, 800),
        ("B", "MSFT", 27.0, 800),    # in the gap of Bob's ranges
        ("T", "ORCL", 14.0, 90_000), # only Carol's large-trade filter
        ("T", "IBM", 74.5, 1_500),
        ("S", "SUNW", 5.0, 100),     # nobody cares
    ]

    print("\n#  trade                               matched  decision")
    for i, (bst, stock, price, volume) in enumerate(tape):
        point = (
            float(BST_CODES[bst]),
            float(STOCKS[stock]),
            price,
            float(volume),
        )
        event = Event.create(i, stub_nodes[-1], point)
        record = broker.publish(event)
        method = record.method
        label = {
            DeliveryMethod.NOT_SENT: "not sent",
            DeliveryMethod.UNICAST: "unicast",
            DeliveryMethod.MULTICAST: (
                f"multicast to group {record.decision.group} "
                f"({record.decision.group_size} members)"
            ),
        }[method]
        trade = f"{bst} {stock:<5} ${price:<7.2f} x{volume:<7}"
        print(
            f"{i}  {trade:<36} {record.match.num_subscribers:>7}  {label}"
        )

    print("\n(matched = distinct interested subscriber nodes; the "
          "threshold rule unicasts when too few of a group care)")


if __name__ == "__main__":
    main()
