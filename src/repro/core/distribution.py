"""The distribution-method scheme (paper Section 4).

Given a published event, the matched interested subscribers ``s`` and
the precomputed multicast group ``M_q`` whose subset ``S_q`` contains
the event, decide *online* how to deliver:

- no interested subscribers → the publication is **not sent**;
- the event fell into the catchall ``S_0`` (no group covers it) →
  **unicast** to the interested subscribers;
- otherwise **unicast** iff the interested proportion is below the
  threshold: ``|s| / |M_q| < t``; else **multicast** to the group.

Threshold 0 reproduces the static scheme (always multicast when a
group exists); threshold just above 1 degenerates to always-unicast.
The paper's Figure 6 sweeps ``t`` and finds ~15% consistently best.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Protocol, Tuple

__all__ = [
    "DeliveryMethod",
    "DistributionDecision",
    "DistributionPolicy",
    "ThresholdPolicy",
    "PerGroupThresholdPolicy",
    "degraded_flood",
    "record_decision",
]


class DeliveryMethod(enum.Enum):
    """How (or whether) one message is sent."""

    NOT_SENT = "not_sent"
    UNICAST = "unicast"
    MULTICAST = "multicast"


def typed_eq(self: Tuple[Any, ...], other: object) -> bool:
    """``==`` for record tuples: only a record of the same type is
    equal, never a bare tuple of its fields (as for a frozen dataclass)."""
    if type(other) is type(self):
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


class DistributionDecision(NamedTuple):
    """One decision, with the quantities it was based on."""

    method: DeliveryMethod
    interested: int
    group_size: int = 0
    group: int = 0  # 1-based group id; 0 when no group applies

    __eq__ = typed_eq
    __ne__ = object.__ne__
    __hash__ = tuple.__hash__

    @property
    def interested_ratio(self) -> float:
        """``|s| / |M_q|``; zero when no group applies."""
        if self.group_size <= 0:
            return 0.0
        return self.interested / self.group_size


class DistributionPolicy(Protocol):
    """Anything that can make the per-event delivery decision."""

    def decide(
        self, interested: int, group_size: int, group: int
    ) -> DistributionDecision:
        """Decide for one event (``group`` is 1-based; 0 = catchall)."""
        ...


@dataclass(frozen=True)
class ThresholdPolicy:
    """The paper's fixed-level rule ``|s|/|M_q| < t  =>  unicast``."""

    threshold: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"threshold must lie in [0, 1], got {self.threshold}"
            )

    def decide(
        self, interested: int, group_size: int, group: int
    ) -> DistributionDecision:
        """Decide for one event that landed in group ``group`` (1-based).

        ``group = 0`` means the event fell into the catchall ``S_0``.
        """
        return _threshold_rule(self.threshold, interested, group_size, group)


@dataclass(frozen=True)
class PerGroupThresholdPolicy:
    """Per-group thresholds — the paper's future-work direction.

    Section 6 asks for "measures which could help determine how
    efficient a multicast group has to be in order to actually employ
    it": groups differ in size, geography and tree cost, so a single
    global ``t`` is a compromise.  This policy carries one threshold
    per group (falling back to a default), typically produced by
    :class:`repro.core.tuning.ThresholdTuner` from a training workload.
    """

    default_threshold: float = 0.15
    per_group: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.default_threshold <= 1.0:
            raise ValueError("default_threshold must lie in [0, 1]")
        for group, threshold in self.per_group.items():
            if not 0.0 <= threshold <= 1.0:
                raise ValueError(
                    f"threshold for group {group} out of [0, 1]: "
                    f"{threshold}"
                )

    def threshold_for(self, group: int) -> float:
        """The threshold applied to one group."""
        return self.per_group.get(group, self.default_threshold)

    def decide(
        self, interested: int, group_size: int, group: int
    ) -> DistributionDecision:
        """Same rule as :class:`ThresholdPolicy`, group-specific ``t``."""
        return _threshold_rule(
            self.threshold_for(group), interested, group_size, group
        )


def _threshold_rule(
    threshold: float, interested: int, group_size: int, group: int
) -> DistributionDecision:
    """The rule both threshold policies apply, for a validated ``t``:
    no interest is not sent, the catchall ``S_0`` unicasts, and a group
    unicasts iff ``|s|/|M_q| < t``."""
    if interested < 0 or group_size < 0:
        raise ValueError("counts must be non-negative")
    if interested == 0:
        method = DeliveryMethod.NOT_SENT
    elif group == 0 or group_size == 0 or interested / group_size < threshold:
        method = DeliveryMethod.UNICAST
    else:
        method = DeliveryMethod.MULTICAST
    return DistributionDecision(method, interested, group_size, group)


def degraded_flood(
    interested: int, group_size: int, group: int
) -> DistributionDecision:
    """The overload DEGRADED decision: multicast unconditionally.

    When the broker's :class:`~repro.overload.HealthMonitor` reports
    DEGRADED, the threshold rule is skipped entirely — the paper's
    multicast arm taken unconditionally, flooding the whole group
    ``M_q`` without the exact match that ``|s|`` would require.  Only
    valid for events with a covering group (``group >= 1``); catchall
    events have nothing to flood and must take the exact path.
    """
    if group <= 0:
        raise ValueError(
            f"degraded_flood: group must be >= 1 (got {group})"
        )
    method = DeliveryMethod.MULTICAST
    return DistributionDecision(method, interested, group_size, group)


def record_decision(telemetry, decision: DistributionDecision) -> None:
    """Meter one distribution decision into a telemetry registry.

    Counts the per-method decision rate (the unicast-vs-multicast
    split ``repro stats`` reports) and, when a group applied, the
    interested-ratio the threshold rule saw — the distribution of the
    very quantity the paper's Figure 6 sweeps ``t`` over.  A no-op
    under :class:`~repro.telemetry.base.NullTelemetry`.
    """
    if not telemetry.enabled:
        return
    telemetry.counter(
        "decision.total", help="distribution decisions made"
    ).inc()
    telemetry.counter(
        "decision.method",
        help="decisions per delivery method",
        method=decision.method.value,
    ).inc()
    if decision.group_size > 0:
        telemetry.histogram(
            "decision.interested_ratio",
            help="|s| / |M_q| seen by the threshold rule",
            bounds=tuple(i / 20.0 for i in range(1, 21)),
        ).observe(decision.interested_ratio)
