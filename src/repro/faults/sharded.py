"""The old home of the sharded harness, kept for one benchmark patch row.

The sharded harness is :class:`~repro.faults.cluster.
FullStackChaosSimulation`; ``ShardedChaosSimulation`` is that class
under its old name, so ``bench/layers.py``'s patch row for
``repro.faults.sharded.ShardedChaosSimulation.run`` still finds a
class that defines ``run`` itself.  Nothing else imports this module.
It goes when a benchmark-only change drops that row (ROADMAP item 1).
"""

from .cluster import FullStackChaosSimulation as ShardedChaosSimulation

__all__ = ["ShardedChaosSimulation"]
