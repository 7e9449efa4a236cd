"""Scale-out: the heaviest shard's matching work shrinks as shards are
added.

The subset-to-shard assignment is planned at K = 1, 2, 4, 8 over a
1000-subscription chaos testbed and 600 events are routed through the
scattered shards.  One shard holds the whole table; from there the
largest per-shard table (the matching work one shard does) never
grows with K.
"""

from __future__ import annotations

from repro.core import Event
from repro.faults.verifier import build_chaos_testbed
from repro.sharding import ShardMap, ShardRouter
from repro.workload import PublicationGenerator

SEED = 2003
EVENTS = 600
SHARD_COUNTS = (1, 2, 4, 8)


def test_the_largest_shard_table_shrinks_with_the_shard_count():
    broker, density = build_chaos_testbed(
        seed=SEED, subscriptions=1000, num_groups=11
    )
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=SEED + 5
    ).generate(EVENTS)
    largest = {}
    for num_shards in SHARD_COUNTS:
        router = ShardRouter(broker, ShardMap.plan(broker.partition, num_shards))
        for sequence in range(len(points)):
            router.route(
                Event.create(
                    sequence, int(publishers[sequence]), points[sequence]
                )
            )
        largest[num_shards] = max(
            len(router.shards[k]) for k in range(num_shards)
        )

    assert largest[1] == len(broker.table)
    sizes = [largest[k] for k in SHARD_COUNTS]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert largest[8] < len(broker.table)
