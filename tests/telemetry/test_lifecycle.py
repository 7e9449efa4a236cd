"""End-to-end trace integrity on a faulty, retrying chaos run.

One seeded run with lossy links and a broker crash produces the full
lifecycle — ``event → match / distribution-decision / route →
deliver → retry / ack`` — and the trace must hold together: every
parent id resolves, children nest inside their parents' trace, retries
actually appear, and the whole thing is byte-identical when re-run.
"""

import json

import pytest

from repro.faults import (
    ChaosSimulation,
    FullStackChaosSimulation,
    OverloadChaosSimulation,
    build_burst_storm_times,
    build_chaos_plan,
    build_chaos_testbed,
    build_cluster_plan,
)
from repro.sharding import ShardMap
from repro.telemetry import Telemetry, span_tree, spans_to_jsonl
from repro.workload import PublicationGenerator

EVENTS = 60
SEED = 23

#: The lifecycle every harness that routes must produce.
EXPECTED_PARENT = {
    "match": "event",
    "distribution-decision": "event",
    "route": "event",
    "deliver": "route",
    "retry": "deliver",
    "ack": "deliver",
}


#: The cluster runs: K = 4 under a kill, and the zero-standby one-shard
#: cluster whose home crashes and restarts from its own WAL.
CLUSTER_RUNS = {
    "full": dict(shards=4),
    "wal": dict(
        shards=1,
        scenario="restart",
        standby_count=0,
        crash_length=8.0,
        loss=0.12,
    ),
}


def _instrumented_run(harness=ChaosSimulation, cluster="full"):
    """One seeded, instrumented run of ``harness``: (report, telemetry)."""
    broker, density = build_chaos_testbed(seed=SEED, subscriptions=150)
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=SEED + 9
    ).generate(EVENTS)
    telemetry = Telemetry(seed=SEED)
    if harness is FullStackChaosSimulation:
        options = dict(CLUSTER_RUNS[cluster])
        shards = options.pop("shards")
        shard_map = ShardMap.plan(broker.partition, shards)
        plan, homes, standbys, migrations, corruptions = build_cluster_plan(
            broker.topology,
            shard_map,
            seed=SEED,
            horizon=float(EVENTS),
            **options,
        )
        simulation = harness(
            broker,
            plan,
            standbys,
            num_shards=shards,
            shard_homes=homes,
            migrations=migrations,
            corruptions=corruptions,
            telemetry=telemetry,
        )
    else:
        plan = build_chaos_plan(
            broker.topology, seed=SEED, loss=0.12, horizon=float(EVENTS)
        )
        simulation = harness(broker, plan, telemetry=telemetry)
    if harness is OverloadChaosSimulation:
        return (
            simulation.run(points, publishers, build_burst_storm_times(EVENTS)),
            telemetry,
        )
    return simulation.run(points, publishers), telemetry


@pytest.fixture(scope="module")
def faulty_run():
    return _instrumented_run()


def _planned(report):
    """How many events reached the broker's publish plan: a harness may
    shed or expire the others before it."""
    if hasattr(report, "sharded"):
        return report.sharded.delivered_events
    if hasattr(report, "delivered_events"):
        return report.delivered_events
    return report.events


@pytest.fixture(
    scope="module",
    # Short ids: the suite's listing cuts test names at 100 characters.
    params=[
        pytest.param((ChaosSimulation, None), id="base"),
        pytest.param((OverloadChaosSimulation, None), id="load"),
        pytest.param((FullStackChaosSimulation, "wal"), id="wal"),
        pytest.param((FullStackChaosSimulation, "full"), id="full"),
    ],
)
def harness_run(request):
    """Every harness that routes, not the base one only: the overload
    copy of the publish loop had lost the decision and route spans, the
    sharded one every span above ``deliver``."""
    return _instrumented_run(*request.param)


class TestSpanIntegrity:
    def test_retries_happened(self, faulty_run):
        # The scenario must actually exercise the retry path, or the
        # rest of this module proves nothing.
        report, telemetry = faulty_run
        assert report.exactly_once
        assert telemetry.metrics.value("transport.retries") > 0
        assert any(s.name == "retry" for s in telemetry.tracer.spans)

    def test_every_parent_resolves_within_its_trace(self, harness_run):
        _, telemetry = harness_run
        spans = telemetry.tracer.spans
        assert telemetry.tracer.dropped == 0
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert parent.trace_id == span.trace_id

    def test_lifecycle_shape(self, harness_run):
        _, telemetry = harness_run
        spans = telemetry.tracer.spans
        by_id = {s.span_id: s for s in spans}
        assert {s.name for s in spans} >= set(EXPECTED_PARENT)
        for span in spans:
            if span.name not in EXPECTED_PARENT:
                # The root, or a harness marker (crash, kill, takeover,
                # health transition): outside every event's tree.
                assert span.parent_id is None
            elif span.parent_id is None:
                # Only a delivery re-handed after a crash or a takeover
                # has lost its tree: the sender that opened it is gone.
                assert span.name == "deliver"
            else:
                assert (
                    by_id[span.parent_id].name == EXPECTED_PARENT[span.name]
                )
            if span.name == "distribution-decision":
                assert span.attributes["interested"] >= 0

    def test_roots_cover_every_published_event(self, harness_run):
        report, telemetry = harness_run
        planned = _planned(report)
        roots = [s for s in telemetry.tracer.spans if s.name == "event"]
        assert len(roots) == planned > 0
        traces = sorted(s.trace_id for s in roots)
        assert traces == sorted(set(traces))
        assert set(traces) <= set(range(EVENTS))
        if planned == EVENTS:
            assert traces == list(range(EVENTS))

    def test_spans_are_finished_and_causally_ordered(self, faulty_run):
        _, telemetry = faulty_run
        by_id = {s.span_id: s for s in telemetry.tracer.spans}
        for span in telemetry.tracer.spans:
            assert span.end is not None
            assert span.end >= span.start
            if span.parent_id is not None:
                # A child never starts before its parent.
                assert span.start >= by_id[span.parent_id].start

    def test_timestamps_are_simulated_time(self, faulty_run):
        report, telemetry = faulty_run
        # Simulated time, not wall time: the latest span activity fits
        # inside the simulation horizon the report measured.
        last = max(s.end for s in telemetry.tracer.spans)
        assert last <= report.finished_at

    def test_retry_spans_attach_to_their_delivery(self, faulty_run):
        _, telemetry = faulty_run
        by_id = {s.span_id: s for s in telemetry.tracer.spans}
        retries = [
            s for s in telemetry.tracer.spans if s.name == "retry"
        ]
        assert retries
        for retry in retries:
            assert by_id[retry.parent_id].name == "deliver"
            # The first data send is attempt 1; retries start at 2.
            assert retry.attributes["attempt"] >= 2

    def test_retry_spans_match_retry_counter(self, faulty_run):
        _, telemetry = faulty_run
        spans = telemetry.tracer.spans
        retry_spans = sum(1 for s in spans if s.name == "retry")
        assert retry_spans == telemetry.metrics.value(
            "transport.retries"
        )
        gave_up = [
            s
            for s in spans
            if s.name == "deliver" and s.status == "gave_up"
        ]
        assert not gave_up  # exactly-once run delivered everything
        # ``attempts`` counts sends up to first arrival, so it can lag
        # the retry total (a timeout may race an in-flight ack) but
        # never exceed attempts-per-delivery overall.
        extra_attempts = sum(
            s.attributes["attempts"] - 1
            for s in spans
            if s.name == "deliver"
        )
        assert extra_attempts <= retry_spans


class TestDeterminism:
    def test_rerun_is_byte_identical(self, faulty_run):
        _, first = faulty_run
        _, second = _instrumented_run()
        first_lines = "\n".join(spans_to_jsonl(first.tracer.spans))
        second_lines = "\n".join(spans_to_jsonl(second.tracer.spans))
        assert first_lines == second_lines

    def test_single_trace_export_is_well_formed(self, faulty_run):
        _, telemetry = faulty_run
        with_retry = next(
            s.trace_id
            for s in telemetry.tracer.spans
            if s.name == "retry"
        )
        ordered = span_tree(telemetry.tracer.spans, with_retry)
        seen = set()
        for line in spans_to_jsonl(ordered):
            decoded = json.loads(line)
            assert (
                decoded["parent_id"] is None
                or decoded["parent_id"] in seen
            )
            seen.add(decoded["span_id"])
        names = {s.name for s in ordered}
        assert {"event", "match", "route", "deliver", "retry"} <= names
