"""Shared configuration for the paper's experiments.

One frozen dataclass gathers every knob of the Section 5 testbed, with
defaults matching the paper: a ~600-node transit-stub network, 1000
subscriptions, the three publication scenarios (1/4/9 modes), group
counts 11 and 61, and a threshold sweep over [0, 1].

Everything is seeded; two runs with the same config produce identical
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["ExperimentConfig", "SMALL_CONFIG"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experimental campaign."""

    seed: int = 2003  # the paper's publication year, for flavour
    num_subscriptions: int = 1000
    num_events: int = 1000
    cells_per_dim: int = 10
    max_cells: int = 200  # the paper's constant T
    group_counts: Tuple[int, ...] = (11, 61)
    mode_counts: Tuple[int, ...] = (1, 4, 9)
    thresholds: Tuple[float, ...] = (
        0.0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50, 0.75, 1.0,
    )
    matcher_backend: str = "stree"

    def __post_init__(self) -> None:
        if self.num_subscriptions < 1 or self.num_events < 1:
            raise ValueError("need at least one subscription and one event")
        if any(not 0.0 <= t <= 1.0 for t in self.thresholds):
            raise ValueError("thresholds must lie in [0, 1]")
        if any(g < 1 for g in self.group_counts):
            raise ValueError("group counts must be positive")


#: A scaled-down config for tests and quick sanity runs.
SMALL_CONFIG = ExperimentConfig(
    seed=7,
    num_subscriptions=200,
    num_events=200,
    cells_per_dim=6,
    max_cells=60,
    group_counts=(5,),
    mode_counts=(4,),
    thresholds=(0.0, 0.1, 0.3),
)
