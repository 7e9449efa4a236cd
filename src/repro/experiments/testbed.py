"""Construction of the shared simulation testbed.

Builds, from an :class:`~repro.experiments.config.ExperimentConfig`,
the pieces every experiment shares: the transit-stub topology, the
placed subscriptions and their table, and (per scenario) the event
density, publication workload and preprocessed brokers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..clustering.base import CellClusteringAlgorithm
from ..core.broker import PubSubBroker
from ..core.distribution import ThresholdPolicy
from ..core.subscription import SubscriptionTable
from ..network.multicast import DeliveryCostModel
from ..network.topology import Topology, TransitStubGenerator
from ..workload.publications import (
    ProductMixtureDistribution,
    PublicationGenerator,
    publication_distribution,
)
from ..workload.subscriptions import (
    PlacedSubscription,
    StockSubscriptionGenerator,
)
from .config import ExperimentConfig

__all__ = ["Testbed", "build_testbed"]


@dataclass
class Testbed:
    """The static part of the simulation, shared across experiments."""

    config: ExperimentConfig
    topology: Topology
    placed: List[PlacedSubscription]
    table: SubscriptionTable
    cost_model: DeliveryCostModel

    def density(self, modes: int) -> ProductMixtureDistribution:
        """Event density for one of the paper's scenarios."""
        return publication_distribution(modes)

    def publications(
        self, modes: int, count: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A seeded publication workload ``(points, publishers)``.

        The seed mixes in the mode count so scenarios differ, while
        repeated calls for the same scenario are identical.
        """
        generator = PublicationGenerator(
            self.density(modes),
            self.topology.all_stub_nodes(),
            seed=self.config.seed * 1000 + modes,
        )
        return generator.generate(count or self.config.num_events)

    def make_broker(
        self,
        algorithm: CellClusteringAlgorithm,
        num_groups: int,
        modes: int,
        threshold: float = 0.15,
    ) -> PubSubBroker:
        """Preprocess one broker (clustering + index + partition)."""
        return PubSubBroker.preprocess(
            self.topology,
            self.table,
            algorithm,
            num_groups=num_groups,
            density=self.density(modes),
            cells_per_dim=self.config.cells_per_dim,
            max_cells=self.config.max_cells,
            policy=ThresholdPolicy(threshold),
            matcher_backend=self.config.matcher_backend,
            cost_model=self.cost_model,
        )


def build_testbed(config: ExperimentConfig) -> Testbed:
    """Generate the topology and subscriptions for a config."""
    topology = TransitStubGenerator(seed=config.seed).generate()
    placed = StockSubscriptionGenerator(
        topology, seed=config.seed + 1
    ).generate(config.num_subscriptions)
    table = SubscriptionTable.from_placed(placed)
    return Testbed(
        config=config,
        topology=topology,
        placed=placed,
        table=table,
        cost_model=DeliveryCostModel(topology),
    )
