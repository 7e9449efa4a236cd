"""NullTelemetry must leave every result bit-for-bit unchanged.

The default ``telemetry=None`` resolves to the shared
:data:`~repro.telemetry.base.NULL_TELEMETRY`; these tests pin down the
guarantee that instrumentation is observationally free — the same
tallies, the same chaos verdicts, the same numbers everywhere.
"""

import dataclasses

import pytest

from repro.cli import _assemble, _build_parser
from repro.clustering import ForgyKMeansClustering
from repro.core import PubSubBroker, ThresholdPolicy
from repro.faults.verifier import (
    ChaosSimulation,
    build_chaos_plan,
    build_chaos_testbed,
)
from repro.telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry
from repro.workload import PublicationGenerator
from tests.faults.test_golden import SCENARIOS


def _broker(topology, table, density, telemetry):
    return PubSubBroker.preprocess(
        topology,
        table,
        ForgyKMeansClustering(),
        num_groups=6,
        density=density,
        telemetry=telemetry,
    ).with_policy(ThresholdPolicy(0.15))


class TestNullObject:
    def test_null_telemetry_is_disabled(self):
        assert not NullTelemetry().enabled
        assert not NULL_TELEMETRY.enabled
        assert Telemetry().enabled

    def test_null_accepts_every_call(self):
        telemetry = NullTelemetry()
        telemetry.counter("a").inc()
        telemetry.gauge("b").set(2)
        telemetry.histogram("c").observe(3.0)
        span = telemetry.start_span("s", trace_id=1)
        span.set_attribute("k", "v").finish()
        telemetry.bind_clock(lambda: 99.0)
        assert telemetry.clock() == 0.0


class TestBrokerRunsUnchanged:
    def test_cost_tally_identical_with_and_without_telemetry(
        self, small_topology, small_table, nine_mode_density, small_events
    ):
        points, publishers = small_events
        baseline = _broker(
            small_topology, small_table, nine_mode_density, None
        )
        instrumented = _broker(
            small_topology, small_table, nine_mode_density, Telemetry()
        )
        tally_base, records_base = baseline.run(points, publishers)
        tally_inst, records_inst = instrumented.run(points, publishers)
        assert dataclasses.asdict(tally_base) == dataclasses.asdict(
            tally_inst
        )
        assert records_base == records_inst
        # ... and the instrumented run actually measured something.
        assert (
            instrumented.telemetry.metrics.value("broker.events")
            == len(points)
        )

    def test_null_telemetry_records_nothing(
        self, small_topology, small_table, nine_mode_density, small_events
    ):
        points, publishers = small_events
        broker = _broker(
            small_topology, small_table, nine_mode_density, NullTelemetry()
        )
        broker.run(points, publishers)
        assert list(broker.telemetry.metrics.families()) == []
        assert broker.telemetry.tracer.spans == []


class TestChaosRunsUnchanged:
    def test_chaos_report_identical_under_faults(self):
        def run(telemetry):
            broker, density = build_chaos_testbed(
                seed=41, subscriptions=120
            )
            plan = build_chaos_plan(
                broker.topology, seed=41, loss=0.1, horizon=40.0
            )
            simulation = ChaosSimulation(
                broker, plan, reliable=True, telemetry=telemetry
            )
            points, publishers = PublicationGenerator(
                density, broker.topology.all_stub_nodes(), seed=50
            ).generate(40)
            return simulation.run(points, publishers)

        baseline = run(None)
        instrumented = run(Telemetry(seed=41))
        assert dataclasses.asdict(baseline) == dataclasses.asdict(
            instrumented
        )
        assert baseline.exactly_once

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_harness_reports_the_same_run(self, name):
        """Each harness threads ``telemetry=`` through 5-10
        constructors; none of them may perturb a digest or a verdict.
        The CLI's one scenario assembly builds both runs."""
        args = _build_parser().parse_args(
            ["chaos", *SCENARIOS[name], "--events", "100",
             "--subscriptions", "150"]
        )
        baseline = _assemble(args)
        instrumented = _assemble(args, Telemetry(seed=args.seed))
        report = baseline.run()
        metered = instrumented.run()
        assert report.summary_rows() == metered.summary_rows()
        assert baseline.verdict(report) == instrumented.verdict(metered)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_null_telemetry_harness_registers_nothing(self, name):
        """Components expose their tallies at construction; under
        ``NullTelemetry`` that registers no family, counted or exposed."""
        args = _build_parser().parse_args(
            ["chaos", *SCENARIOS[name], "--events", "100",
             "--subscriptions", "150"]
        )
        telemetry = NullTelemetry()
        _assemble(args, telemetry).run()
        assert list(telemetry.metrics.families()) == []
