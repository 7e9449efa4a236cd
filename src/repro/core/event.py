"""Publication events.

An event is a point ``omega`` in the event space, published from a
network node.  Events carry a sequence number so delivery records can
be traced back through the experiment logs, and an optional
**deadline** (absolute simulated time) after which delivering them is
worthless — overload-protected pipelines drop expired events at every
stage (ingress queue, pre-route, receiver) instead of delivering them
late.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..geometry.point import as_point

__all__ = ["Event"]


@dataclass(frozen=True)
class Event:
    """One published event."""

    sequence: int
    publisher: int
    point: Tuple[float, ...]
    #: Absolute expiry time (simulated clock); ``None`` = never expires.
    deadline: Optional[float] = None

    @classmethod
    def create(
        cls,
        sequence: int,
        publisher: int,
        coords: Sequence[float],
        deadline: Optional[float] = None,
    ) -> Event:
        """Validating constructor (finite coordinates enforced)."""
        if deadline is not None:
            deadline = float(deadline)
        return cls(
            sequence=int(sequence),
            publisher=int(publisher),
            point=as_point(coords),
            deadline=deadline,
        )

    def expired(self, now: float) -> bool:
        """Whether delivering this event at ``now`` would be too late."""
        return self.deadline is not None and now >= self.deadline

    @property
    def ndim(self) -> int:
        return len(self.point)
