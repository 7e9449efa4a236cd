"""The six workloads and their frozen sizes.

Names are fixed — later issues cite them.  Sizes are frozen: the
``stack_*`` rates fall as a run gets longer, so changing a count
changes what the number means and needs a new baseline.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict

from ..harness import Workload
from .core import CoreWorkload
from .durability import DurabilityWorkload
from .stack import ClusterKillWorkload, SessionsCrashWorkload

#: ``--smoke`` divides every count by this (development only).
SMOKE_DIVISOR = 20

NAMES = (
    "core_fig5_1k",
    "core_match_8k",
    "core_churn_4k",
    "stack_cluster_kill",
    "stack_sessions_crash",
    "durability_wal",
)


def make(
    name: str, smoke: bool, corrupt_oracle: bool, scratch: Path
) -> Workload:
    """The workload called ``name``; ``scratch`` is where it may write."""
    cut = SMOKE_DIVISOR if smoke else 1
    makers: Dict[str, Callable[[], Workload]] = {
        "core_fig5_1k": lambda: CoreWorkload(
            name,
            subscriptions=1000,
            warm_up_events=10_000 // cut,
            rep_events=10_000 // cut,
            telemetry_probe=True,
            corrupt_oracle=corrupt_oracle,
        ),
        "core_match_8k": lambda: CoreWorkload(
            name,
            subscriptions=8000 // cut,
            warm_up_events=2000 // cut,
            rep_events=2000 // cut,
            corrupt_oracle=corrupt_oracle,
        ),
        "core_churn_4k": lambda: CoreWorkload(
            name,
            subscriptions=4000 // cut,
            warm_up_events=2000 // cut,
            rep_events=2000 // cut,
            churn_every=4,
            corrupt_oracle=corrupt_oracle,
        ),
        # The kill comes at t = 120 (40 % of the 300-unit minimum
        # horizon), so even a smoke run needs events beyond that.
        "stack_cluster_kill": lambda: ClusterKillWorkload(
            name, events=500 // min(cut, 4), corrupt_oracle=corrupt_oracle
        ),
        "stack_sessions_crash": lambda: SessionsCrashWorkload(
            name, events=2000 // cut, corrupt_oracle=corrupt_oracle
        ),
        "durability_wal": lambda: DurabilityWorkload(
            name,
            events=2000 // cut,
            scratch=scratch,
            corrupt_oracle=corrupt_oracle,
        ),
    }
    return makers[name]()
