"""Broker health states with hysteresis: HEALTHY → DEGRADED → OVERLOADED.

The paper's threshold rule already encodes a bandwidth/precision
trade-off: unicast exactly the interested set, or multicast the whole
precomputed group ``M_q`` (a superset, by the clustering invariant).
That same trade-off gives a saturated broker a principled cheap mode:
when load climbs, *skip the exact S-tree point query entirely* and
flood the group — per-event work drops from an index descent to one
``locate`` (a grid-cell lookup), at the price of the group-minus-
interested waste the paper's EW metric quantifies.  That is the
DEGRADED state.  Past DEGRADED, when even flooding cannot keep the
queue bounded, the broker goes OVERLOADED and sheds per its queue
policy.

State changes are driven by one scalar signal — ingress-queue fill
fraction — compared against *asymmetric* thresholds (hysteresis), plus
a minimum dwell time, so the state machine cannot flap at a boundary:

    HEALTHY ──(fill ≥ degrade_high)──▶ DEGRADED ──(fill ≥ overload_high)──▶ OVERLOADED
       ▲                                  │  ▲                                  │
       └──(fill ≤ degrade_low, dwelt)─────┘  └──(fill ≤ overload_low, dwelt)────┘

Upward (protective) transitions fire immediately; downward (relaxing)
ones require the signal to sit at-or-below the low-water mark *and*
the state to have dwelt at least ``min_dwell`` time units.  All time
is the injected ``now``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["BrokerHealth", "HealthThresholds", "HealthMonitor"]


class BrokerHealth(enum.Enum):
    """The broker's load state, best to worst."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    OVERLOADED = "overloaded"


@dataclass(frozen=True)
class HealthThresholds:
    """High/low-water marks of the hysteresis bands.

    Required orderings: ``0 <= degrade_low < degrade_high <=
    overload_low < overload_high <= 1`` and ``min_dwell >= 0``.
    """

    degrade_high: float = 0.60
    degrade_low: float = 0.30
    overload_high: float = 0.90
    overload_low: float = 0.60
    min_dwell: float = 25.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.degrade_low < self.degrade_high:
            raise ValueError(
                "HealthThresholds: need 0 <= degrade_low < degrade_high "
                f"(got {self.degrade_low}, {self.degrade_high})"
            )
        if not self.degrade_high <= self.overload_low < self.overload_high:
            raise ValueError(
                "HealthThresholds: need degrade_high <= overload_low < "
                f"overload_high (got {self.degrade_high}, "
                f"{self.overload_low}, {self.overload_high})"
            )
        if self.overload_high > 1.0:
            raise ValueError(
                "HealthThresholds: overload_high must be <= 1 "
                f"(got {self.overload_high})"
            )
        if self.min_dwell < 0:
            raise ValueError(
                "HealthThresholds: min_dwell must be non-negative "
                f"(got {self.min_dwell})"
            )


class HealthMonitor:
    """Tracks one broker's health from a stream of (now, fill) samples."""

    def __init__(self, thresholds: HealthThresholds | None = None):
        self.thresholds = thresholds or HealthThresholds()
        self.state = BrokerHealth.HEALTHY
        self._entered_at = 0.0
        #: (time, state) transition log, oldest first.
        self.transitions: List[Tuple[float, BrokerHealth]] = []
        #: Total samples observed per state (a cheap duty-cycle view).
        self.samples = {state: 0 for state in BrokerHealth}

    def _enter(self, state: BrokerHealth, now: float) -> None:
        self.state = state
        self._entered_at = now
        self.transitions.append((now, state))

    def observe(self, now: float, fill: float) -> BrokerHealth:
        """Feed one queue-fill sample; returns the (possibly new) state."""
        t = self.thresholds
        dwelt = (now - self._entered_at) >= t.min_dwell
        if self.state is BrokerHealth.HEALTHY:
            if fill >= t.overload_high:
                self._enter(BrokerHealth.OVERLOADED, now)
            elif fill >= t.degrade_high:
                self._enter(BrokerHealth.DEGRADED, now)
        elif self.state is BrokerHealth.DEGRADED:
            if fill >= t.overload_high:
                self._enter(BrokerHealth.OVERLOADED, now)
            elif fill <= t.degrade_low and dwelt:
                self._enter(BrokerHealth.HEALTHY, now)
        else:  # OVERLOADED
            if fill <= t.overload_low and dwelt:
                # Recover one step at a time; the DEGRADED dwell then
                # gates the final step back to HEALTHY.
                self._enter(BrokerHealth.DEGRADED, now)
        self.samples[self.state] += 1
        return self.state

    @property
    def degraded(self) -> bool:
        """True in any protective state (DEGRADED or worse)."""
        return self.state is not BrokerHealth.HEALTHY
