"""The paper's primary contribution: matching + distribution method.

Ties the substrates together into a complete content-based pub-sub
system: :class:`~repro.core.subscription.SubscriptionTable` holds the
interest rectangles, :class:`~repro.core.matching.MatchingEngine`
answers point queries, :class:`~repro.core.distribution.ThresholdPolicy`
makes the online multicast-vs-unicast call, and
:class:`~repro.core.broker.PubSubBroker` runs the whole pipeline with
network cost accounting.  A subscription is written as per-attribute
interval lists (``SubscriptionTable.add_predicates``);
:class:`~repro.core.dynamic.DynamicPubSubBroker` adds churn, with
``repreprocess`` as the one way to re-cluster.
"""

from .adaptive import AdaptiveThresholdPolicy, run_adaptive
from .broker import DeliveryRecord, PublishPlan, PubSubBroker
from .distribution import (
    DeliveryMethod,
    DistributionDecision,
    DistributionPolicy,
    PerGroupThresholdPolicy,
    ThresholdPolicy,
)
from .dynamic import DynamicMatchingEngine, DynamicPubSubBroker
from .event import Event
from .matching import MATCHER_BACKENDS, MatchingEngine, MatchResult
from .subscription import Subscription, SubscriptionTable, decompose_predicates
from .tuning import (
    GroupEfficiency,
    GroupSample,
    ThresholdTuner,
    TuningReport,
    oracle_tally,
)

__all__ = [
    "AdaptiveThresholdPolicy",
    "run_adaptive",
    "DeliveryRecord",
    "PublishPlan",
    "PubSubBroker",
    "DeliveryMethod",
    "DistributionDecision",
    "DistributionPolicy",
    "PerGroupThresholdPolicy",
    "ThresholdPolicy",
    "DynamicMatchingEngine",
    "DynamicPubSubBroker",
    "Event",
    "MATCHER_BACKENDS",
    "MatchingEngine",
    "MatchResult",
    "Subscription",
    "SubscriptionTable",
    "decompose_predicates",
    "GroupEfficiency",
    "GroupSample",
    "ThresholdTuner",
    "TuningReport",
    "oracle_tally",
]
