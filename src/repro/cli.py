"""Command-line interface.

The subcommands cover the library's main workflows::

    repro generate  --seed 7 --subscriptions 1000 --out testbed.json
    repro run       --testbed testbed.json --algorithm forgy \\
                    --groups 11 --modes 9 --threshold 0.15
    repro tune      --testbed testbed.json --groups 11 --modes 9
    repro experiments [--small]
    repro chaos     SCENARIO
    repro stats     SCENARIO [--top-links 5] [--metrics-out m.prom]
    repro trace     SCENARIO --event 3 [--pretty]
    repro sessions  stats --scenario flap | dlq --redrive
    repro shard     plan --shards 4 | stats --shards 8
    repro wal       --path broker.wal
    repro lint      [--rule DET01] [--format json] [--baseline write] src
    repro dot       --testbed testbed.json --out topology.dot

**One scenario, three verbs.**  ``SCENARIO`` is one option list
(``--seed --events --subscriptions --loss --crashes ...`` plus at most
one mode flag) and one assembly (`_assemble`): the same arguments build
the same testbed, event stream, fault plan and harness, hence the same
simulated timeline, under all three verbs.  ``chaos`` verifies it
(delivery ledger, digests), ``stats`` meters it (events/sec,
match-latency percentiles, the multicast/unicast split, retry and
duplicate counters, per-link traffic, one section per subsystem that
ran) and ``trace`` follows one event through it (match →
distribution-decision → route → deliver → ack/retry, JSONL or
``--pretty``).  ``chaos`` and ``stats`` exit on the same verdict, 0
iff the mode's guarantee held; ``trace`` exits 0 iff the event left
spans.  The modes:

- *(none)*: lossy links and broker crash/restart windows under the
  reliable protocol, verified exactly-once; ``--unreliable`` reports
  what the raw substrate loses instead (informational, exit 0).
- ``--overload --scenario burst|slow-subscriber|dead-subscriber|
  resubscribe``: the same replay behind token-bucket admission, a
  bounded ingress queue with pluggable shedding, degraded group-flood
  mode and per-subscriber circuit breakers; every event must be
  delivered, shed or expired and the queue stay within capacity.
- ``--cluster --cluster-scenario migrate|kill|partition|catchup|
  double-kill|migrate-under-kill|restart``: publications route to the
  ``--shards`` shard owning their subset, subscriptions scatter, live
  migrations move subsets under traffic (``migrate``: ``--migrations``
  of them), and every shard journals to a write-ahead log
  (``--checkpoint-every``; ``--wal-out F`` for shard 0's home)
  shipped to ``--standbys`` ranked standbys under a cluster-wide
  membership detector.  The ledger must close and every match equal a
  single unsharded broker's, by digest.  One recovery rule answers the
  faults: a dead home is succeeded by a fenced standby takeover, or
  else (``--standbys 0``) excluded and rebalanced onto the survivors;
  a crashed home restarts from its own WAL (``restart``: ``--crashes``
  windows, each damaging the log under ``--corrupt-wal
  torn-tail|bit-flip``).  ``--shards 1`` is one whole broker.
- ``--sessions --session-scenario crash|flap|slow-consumer|poison``:
  durable sessions with ack-driven cursors, catch-up replay and
  dead-letter quarantine against the per-(event, session) ledger; a
  replayed delivery joins its event's trace.

``repro sessions`` prints the cursor table or the dead-letter queue of
one session run; ``repro shard`` the subset→shard plan (greedy
bin-pack over expected load) and scatter statistics, without chaos;
``repro wal`` inspects a log written with ``--wal-out`` (exit 1 when
the tail is damaged); ``repro lint`` runs the invariant linter
(`repro.statics`: determinism, crash-safety and hygiene rules,
``# repro: noqa`` suppressions, a checked-in baseline; exit 1 on a
non-baselined finding, ``--list-rules`` documents every rule).
Every usage error is one ``error: ...`` line on stderr and exit 2.

(Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import Any, Callable, List, NamedTuple, NoReturn, Optional, Tuple

from .analysis.report import format_table
from .clustering import (
    BatchKMeansClustering,
    ForgyKMeansClustering,
    MinimumSpanningTreeClustering,
    PairwiseGroupingClustering,
)
from .core import (
    PubSubBroker,
    SubscriptionTable,
    ThresholdPolicy,
    ThresholdTuner,
    oracle_tally,
)
from .io import load_testbed, save_testbed
from .network import TransitStubGenerator
from .overload import SHED_POLICIES
from .workload import (
    PublicationGenerator,
    StockSubscriptionGenerator,
    publication_distribution,
)

__all__ = ["main"]

ALGORITHMS = {
    "forgy": ForgyKMeansClustering,
    "kmeans": BatchKMeansClustering,
    "pairwise": PairwiseGroupingClustering,
    "mst": MinimumSpanningTreeClustering,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        # One line and exit 2, like every other ``error: ...`` this CLI
        # prints; the usage block of ``chaos`` alone runs to 25 lines.
        self.exit(2, f"error: {message}\n")


def probability(text: str) -> float:
    """argparse ``type=`` of ``--loss`` / ``--duplicate``: within [0, 1]."""
    value = float(text)  # not a number: argparse names this function
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1] (got {text})")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Content-based pub-sub simulation toolkit "
        "(Riabov et al., ICDCS 2003 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a topology + subscription testbed"
    )
    generate.add_argument("--seed", type=int, default=2003)
    generate.add_argument("--subscriptions", type=int, default=1000)
    generate.add_argument("--out", required=True)

    def add_run_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--testbed", required=True)
        sub.add_argument(
            "--algorithm", choices=sorted(ALGORITHMS), default="forgy"
        )
        sub.add_argument("--groups", type=int, default=11)
        sub.add_argument("--modes", type=int, choices=(1, 4, 9), default=9)
        sub.add_argument("--events", type=int, default=1000)
        sub.add_argument("--seed", type=int, default=2003)

    run = commands.add_parser(
        "run", help="run one delivery campaign and print the tally"
    )
    add_run_options(run)
    run.add_argument("--threshold", type=float, default=0.15)

    tune = commands.add_parser(
        "tune", help="learn per-group thresholds and compare policies"
    )
    add_run_options(tune)

    experiments = commands.add_parser(
        "experiments", help="reproduce every paper table and figure"
    )
    experiments.add_argument("--small", action="store_true")
    experiments.add_argument(
        "--quiet",
        action="store_true",
        help="suppress campaign output (warnings still shown)",
    )

    def add_scenario_options(
        sub: argparse.ArgumentParser,
        events: int,
        loss: float,
        crashes: int,
        crash_length: float,
    ) -> None:
        # The one option list of `chaos`, `stats` and `trace`: the same
        # arguments assemble the same scenario under all three (identical
        # seeds → identical simulated timeline).  Only these four
        # defaults differ per verb.
        sub.add_argument("--seed", type=int, default=2003)
        sub.add_argument("--events", type=int, default=events)
        sub.add_argument("--subscriptions", type=int, default=300)
        sub.add_argument("--groups", type=int, default=11)
        sub.add_argument("--threshold", type=float, default=0.15)
        sub.add_argument(
            "--loss",
            type=probability,
            default=loss,
            help="per-transmission drop probability on every link",
        )
        sub.add_argument(
            "--duplicate",
            type=probability,
            default=0.0,
            help="per-transmission duplication probability on every link",
        )
        sub.add_argument(
            "--crashes",
            type=int,
            default=crashes,
            help="number of broker crash/restart windows",
        )
        sub.add_argument(
            "--crash-length",
            type=float,
            default=crash_length,
            help="duration of each crash window (simulation time units)",
        )
        sub.add_argument(
            "--max-attempts",
            type=int,
            default=6,
            help="reliable-protocol retry budget per delivery",
        )
        sub.add_argument(
            "--unreliable",
            action="store_true",
            help="disable acks/retries/dedup (demonstrates what gets lost)",
        )
        overload = sub.add_argument_group(
            "overload protection (with --overload)"
        )
        overload.add_argument(
            "--overload",
            action="store_true",
            help="run the saturation harness: token-bucket admission, "
            "bounded ingress queue, degraded group-flood mode, and "
            "per-subscriber circuit breakers",
        )
        overload.add_argument(
            "--scenario",
            choices=(
                "burst",
                "slow-subscriber",
                "dead-subscriber",
                "resubscribe",
            ),
            default="burst",
            help="canned overload scenario (default: burst storm)",
        )
        overload.add_argument(
            "--queue-capacity",
            type=int,
            default=64,
            help="bounded ingress queue capacity",
        )
        overload.add_argument(
            "--shed-policy",
            choices=sorted(SHED_POLICIES),
            default="drop-newest",
            help="what the full queue sheds",
        )
        overload.add_argument(
            "--ttl",
            type=float,
            default=None,
            help="per-event lifetime (simulation time units; default: none)",
        )
        overload.add_argument(
            "--admission-rate",
            type=float,
            default=None,
            help="token-bucket refill rate, events/time unit "
            "(default: admission control off)",
        )
        overload.add_argument(
            "--admission-burst",
            type=float,
            default=32.0,
            help="token-bucket burst size",
        )
        overload.add_argument(
            "--service-time",
            type=float,
            default=0.5,
            help="simulated broker cost of serving one queued event",
        )
        cluster = sub.add_argument_group(
            "replicated shard cluster (with --cluster)"
        )
        cluster.add_argument(
            "--cluster",
            action="store_true",
            help="scale the broker out over K shards, each journaled to a "
            "write-ahead log and replicated to ranked standbys under a "
            "cluster-wide membership detector: a dead home is succeeded "
            "by a fenced standby takeover or else excluded and "
            "rebalanced, a crashed home restarts from its own WAL; "
            "verified against the outcome ledger and per-event match "
            "parity with one unsharded broker",
        )
        cluster.add_argument(
            "--shards",
            type=int,
            default=4,
            help="number of shard brokers (homes: first K transit nodes)",
        )
        cluster.add_argument(
            "--migrations",
            type=int,
            default=2,
            help="live subset migrations in the migrate scenario",
        )
        cluster.add_argument(
            "--cluster-scenario",
            choices=(
                "migrate",
                "kill",
                "partition",
                "catchup",
                "double-kill",
                "migrate-under-kill",
                "restart",
            ),
            default="kill",
            help="migrate: --migrations live migrations, no kill; "
            "kill: the busiest shard's home is permanently killed; "
            "partition: it is isolated (fenced zombie primary); "
            "catchup: its first standby is isolated, then its home is "
            "killed; double-kill: the two busiest homes die in sequence; "
            "migrate-under-kill: the migration source dies mid-copy; "
            "restart: --crashes windows crash its home, which restarts "
            "from its own WAL (default: kill)",
        )
        cluster.add_argument(
            "--standbys",
            type=int,
            default=2,
            help="number of ranked standby replicas per shard (0: a "
            "crashed home can only restart, a killed one is excluded)",
        )
        cluster.add_argument(
            "--corrupt-wal",
            choices=("torn-tail", "bit-flip"),
            default=None,
            help="damage the home's WAL at every crash, so each restart "
            "must also truncate/repair the log",
        )
        cluster.add_argument(
            "--checkpoint-every",
            type=int,
            default=64,
            help="take a snapshot + truncate the WAL prefix every N "
            "journaled deliveries",
        )
        cluster.add_argument(
            "--wal-out",
            default=None,
            help="back shard 0's home with this WAL file (inspect it "
            "afterwards with `repro wal`)",
        )
        sessions = sub.add_argument_group(
            "durable subscriber sessions (with --sessions)"
        )
        sessions.add_argument(
            "--sessions",
            action="store_true",
            help="run the subscriber-side harness: durable sessions "
            "under scripted crash/flap/slow-consumer/poison abuse, "
            "catch-up replay and dead-letter quarantine, verified "
            "against the per-(event, session) ledger",
        )
        sessions.add_argument(
            "--session-scenario",
            choices=("crash", "flap", "slow-consumer", "poison"),
            default="crash",
            help="crash: the victim subscriber's node crashes and the "
            "session resumes after the window; flap: three rapid "
            "detach/resume cycles; slow-consumer: the victim's outbound "
            "queue sheds under ttl-priority and replay must recover the "
            "sheds; poison: the victim nacks selected events forever, "
            "which must land in the dead-letter queue (default: crash)",
        )
        sessions.add_argument(
            "--lease",
            type=float,
            default=None,
            help="session lease: how long a detached session holds "
            "retention before being demoted to ephemeral "
            "(default: 0.35 x horizon)",
        )
        sessions.add_argument(
            "--replay-rate",
            type=float,
            default=2.0,
            help="catch-up replay token-bucket refill rate, "
            "events/time unit",
        )

    chaos = commands.add_parser(
        "chaos",
        help="replay a workload under injected faults and verify "
        "the delivery guarantee",
    )
    add_scenario_options(
        chaos, events=500, loss=0.1, crashes=2, crash_length=150.0
    )

    shard = commands.add_parser(
        "shard",
        help="plan and inspect the subset->shard assignment",
    )
    shard_commands = shard.add_subparsers(dest="shard_command", required=True)
    for verb, description in (
        ("plan", "greedy bin-pack of the partition onto K shards"),
        (
            "stats",
            "plan + scatter: per-shard subscription counts and load",
        ),
    ):
        sub = shard_commands.add_parser(verb, help=description)
        sub.add_argument("--seed", type=int, default=2003)
        sub.add_argument("--subscriptions", type=int, default=300)
        sub.add_argument("--groups", type=int, default=11)
        sub.add_argument("--shards", type=int, default=4)
        sub.add_argument(
            "--virtual-nodes",
            type=int,
            default=64,
            help="hash-ring points per shard for the catchall cells",
        )

    sessions = commands.add_parser(
        "sessions",
        help="inspect durable subscriber sessions: the per-session "
        "cursor table or the dead-letter queue",
    )
    session_commands = sessions.add_subparsers(
        dest="sessions_command", required=True
    )
    session_stats = session_commands.add_parser(
        "stats",
        help="run one session chaos scenario and print the "
        "per-session cursor table",
    )
    session_stats.add_argument("--seed", type=int, default=2003)
    session_stats.add_argument("--events", type=int, default=160)
    session_stats.add_argument(
        "--scenario",
        choices=("crash", "flap", "slow-consumer", "poison"),
        default="crash",
        help="which subscriber-abuse script to run (default: crash)",
    )
    session_dlq = session_commands.add_parser(
        "dlq",
        help="run the poison scenario and inspect (optionally "
        "re-drive) the dead-letter queue",
    )
    session_dlq.add_argument("--seed", type=int, default=2003)
    session_dlq.add_argument("--events", type=int, default=160)
    session_dlq.add_argument(
        "--redrive",
        action="store_true",
        help="re-attempt every quarantined delivery (the operator "
        "fixed the consumer) and show the before/after queue",
    )

    stats = commands.add_parser(
        "stats",
        help="run an instrumented workload and print pipeline metrics",
    )
    trace = commands.add_parser(
        "trace",
        help="dump the span tree of one event as JSONL",
    )
    for sub in (stats, trace):
        # One set of defaults for both: `trace --event N` dumps the
        # event of the run `stats` counted.
        add_scenario_options(
            sub, events=200, loss=0.05, crashes=1, crash_length=50.0
        )
    stats.add_argument(
        "--top-links",
        type=int,
        default=5,
        help="how many busiest links to list",
    )
    stats.add_argument(
        "--metrics-out",
        default=None,
        help="also write all metrics in Prometheus text format",
    )
    stats.add_argument(
        "--trace-out",
        default=None,
        help="also write every span as JSONL",
    )

    trace.add_argument(
        "--event",
        type=int,
        required=True,
        help="event sequence number (= trace id) to dump",
    )
    trace.add_argument(
        "--pretty",
        action="store_true",
        help="print an indented tree instead of JSONL",
    )
    trace.add_argument(
        "--out",
        default=None,
        help="write the JSONL here instead of stdout",
    )

    wal = commands.add_parser(
        "wal",
        help="inspect and verify a write-ahead log file",
    )
    wal.add_argument("--path", required=True, help="WAL file to scan")
    wal.add_argument(
        "--tail",
        type=int,
        default=10,
        help="how many trailing records to print (0: none)",
    )

    lint = commands.add_parser(
        "lint",
        help="run the reprolint invariant rules (DET/ASSERT/ANN/ERR/IO/EXC)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="CODE",
        default=None,
        help="restrict to one rule code (repeatable), e.g. --rule DET02",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is what CI archives)",
    )
    lint.add_argument(
        "--baseline",
        choices=("apply", "write", "skip"),
        default="apply",
        help="apply the checked-in baseline (default), rewrite it from "
        "the current findings, or ignore it entirely",
    )
    lint.add_argument(
        "--baseline-file",
        default=None,
        metavar="PATH",
        help="baseline location (default: lint-baseline.json in the cwd)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue (code, invariant, rationale, fix)",
    )

    dot = commands.add_parser(
        "dot", help="export a testbed topology as Graphviz DOT"
    )
    dot.add_argument("--testbed", required=True)
    dot.add_argument("--out", required=True)
    dot.add_argument(
        "--backbone-only",
        action="store_true",
        help="draw transit nodes + collapsed stubs (readable at scale)",
    )
    return parser


def _prepare(args: argparse.Namespace):
    """Load a testbed and preprocess a broker per the CLI options."""
    topology, table = load_testbed(args.testbed)
    density = publication_distribution(args.modes)
    broker = PubSubBroker.preprocess(
        topology,
        table,
        ALGORITHMS[args.algorithm](),
        num_groups=args.groups,
        density=density,
    )
    points, publishers = PublicationGenerator(
        density, topology.all_stub_nodes(), seed=args.seed + args.modes
    ).generate(args.events)
    return broker, points, publishers


def _cmd_generate(args: argparse.Namespace) -> int:
    topology = TransitStubGenerator(seed=args.seed).generate()
    placed = StockSubscriptionGenerator(
        topology, seed=args.seed + 1
    ).generate(args.subscriptions)
    table = SubscriptionTable.from_placed(placed)
    save_testbed(args.out, topology, table)
    print(
        f"wrote {args.out}: {topology.num_nodes} nodes, "
        f"{topology.num_edges} edges, {len(table)} subscriptions"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    broker, points, publishers = _prepare(args)
    tally, _ = broker.with_policy(ThresholdPolicy(args.threshold)).run(
        points, publishers
    )
    print(
        format_table(
            ("metric", "value"),
            [
                ("events", tally.messages),
                ("multicasts", tally.multicasts_sent),
                ("unicasts", tally.unicasts_sent),
                (
                    "not sent",
                    tally.messages
                    - tally.multicasts_sent
                    - tally.unicasts_sent,
                ),
                ("deliveries", tally.deliveries),
                ("avg cost/message", round(tally.average_message_cost, 2)),
                (
                    "improvement over unicast",
                    f"{tally.improvement_percent:.2f}%",
                ),
            ],
        )
    )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    broker, points, publishers = _prepare(args)
    report = ThresholdTuner(broker).tune(points, publishers)
    print("per-group thresholds learned from the workload:\n")
    print(
        format_table(
            ("group", "size", "events", "mc win rate", "t"),
            [
                (
                    row.group,
                    row.group_size,
                    row.events,
                    f"{row.multicast_win_rate:.2f}",
                    f"{row.best_threshold:.2f}",
                )
                for row in report.per_group
            ],
        )
    )
    rows = []
    for label, policy in [
        ("global t=0.15", ThresholdPolicy(0.15)),
        ("tuned per-group", report.policy),
    ]:
        tally, _ = broker.with_policy(policy).run(points, publishers)
        rows.append((label, f"{tally.improvement_percent:.2f}%"))
    oracle = oracle_tally(broker, points, publishers)
    rows.append(("oracle bound", f"{oracle.improvement_percent:.2f}%"))
    print()
    print(format_table(("policy", "improvement"), rows))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.runner import main as runner_main

    argv = []
    if args.small:
        argv.append("--small")
    if args.quiet:
        argv.append("--quiet")
    return runner_main(argv)


def _usage(message: object) -> NoReturn:
    """A usage error: one ``error: …`` line on stderr, exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


class Scenario(NamedTuple):
    """One assembled run: what ``chaos``, ``stats`` and ``trace`` share."""

    simulation: object
    #: Publishes the workload and returns the harness's report.
    run: Callable[[], Any]
    header: str
    #: ``report -> (witness lines, guarantee held)``: what ``chaos``
    #: prints under its table, and what all three verbs exit on.
    verdict: Callable[[Any], Tuple[List[str], bool]]


def _testbed(args: argparse.Namespace, dynamic: bool = False):
    """The broker and event stream of every mode that routes."""
    from .faults.verifier import build_chaos_testbed

    broker, density = build_chaos_testbed(
        seed=args.seed,
        subscriptions=args.subscriptions,
        num_groups=args.groups,
        dynamic=dynamic,
    )
    # ``with_policy`` builds a plain sibling broker, and the
    # resubscribe storm churns the engine through the dynamic
    # machinery, so the DynamicPubSubBroker must survive: set the
    # policy in place (it is read per decision).
    broker.policy = ThresholdPolicy(args.threshold)
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=args.seed + 9
    ).generate(args.events)
    return broker, points, publishers


def _link_faults(args: argparse.Namespace) -> dict:
    """The seeded link faults every mode's plan builder takes."""
    return dict(seed=args.seed, loss=args.loss, duplicate=args.duplicate)


def _retry_budget(simulation, args: argparse.Namespace) -> None:
    """Apply ``--max-attempts`` to a reliable harness's transport."""
    from .faults import RetryConfig

    if simulation.transport is not None:
        simulation.transport.config = RetryConfig.for_network(
            simulation.network, max_attempts=args.max_attempts
        )


def _missing_lines(report) -> List[str]:
    if not report.missing:
        return []
    lines = ["", "first missing deliveries (event, subscriber, reason):"]
    for sequence, subscriber, reason in report.missing[:10]:
        lines.append(f"  event {sequence} -> node {subscriber}: {reason}")
    if len(report.missing) > 10:
        lines.append(f"  ... and {len(report.missing) - 10} more")
    return lines


def _assemble_default(args: argparse.Namespace, telemetry) -> Scenario:
    from .faults import ChaosSimulation
    from .faults.verifier import build_chaos_plan

    broker, points, publishers = _testbed(args)
    plan = build_chaos_plan(
        broker.topology,
        crashes=args.crashes,
        crash_length=args.crash_length,
        horizon=float(args.events),
        **_link_faults(args),
    )
    simulation = ChaosSimulation(
        broker, plan, reliable=not args.unreliable, telemetry=telemetry
    )
    _retry_budget(simulation, args)

    def verdict(report):
        # ``--unreliable`` shows what fire-and-forget loses; it is
        # informational and never fails the build.
        return _missing_lines(report), args.unreliable or report.exactly_once

    return Scenario(
        simulation,
        lambda: simulation.run(points, publishers),
        f"chaos run: {broker.topology.num_nodes} nodes, "
        f"{len(points)} events, loss={args.loss}, "
        f"crashes={args.crashes}x{args.crash_length}",
        verdict,
    )


def _assemble_overload(args: argparse.Namespace, telemetry) -> Scenario:
    from .faults import OverloadChaosSimulation
    from .faults.verifier import (
        build_burst_storm_times,
        build_chaos_plan,
        build_resubscribe_storm,
        build_slow_subscriber_plan,
    )
    from .overload import OverloadConfig

    scenario = args.scenario
    broker, points, publishers = _testbed(
        args, dynamic=scenario == "resubscribe"
    )
    arrival_times = build_burst_storm_times(args.events)
    horizon = max(arrival_times[-1] * 2.0, 500.0)
    churn = []
    header = (
        f"overload run ({scenario}): {broker.topology.num_nodes} nodes, "
        f"{len(points)} events, queue={args.queue_capacity} "
        f"({args.shed_policy}), ttl={args.ttl}, "
        f"admission={args.admission_rate}"
    )
    if scenario in ("slow-subscriber", "dead-subscriber"):
        plan, victim = build_slow_subscriber_plan(
            broker.topology,
            seed=args.seed,
            # A dead subscriber stays dead: the crash window must
            # outlive every retry the transport could schedule.
            horizon=1e9 if scenario == "dead-subscriber" else horizon,
            dead=scenario == "dead-subscriber",
        )
        header += f"\nvictim subscriber: node {victim}"
    else:
        plan = build_chaos_plan(
            broker.topology,
            crashes=args.crashes,
            crash_length=args.crash_length,
            horizon=horizon,
            **_link_faults(args),
        )
        if scenario == "resubscribe":
            churn = build_resubscribe_storm(
                broker,
                at=arrival_times[len(arrival_times) // 2],
                count=min(50, args.subscriptions),
                seed=args.seed,
            )
    simulation = OverloadChaosSimulation(
        broker,
        plan,
        config=OverloadConfig(
            queue_capacity=args.queue_capacity,
            shed_policy=args.shed_policy,
            service_time=args.service_time,
            ttl=args.ttl,
            admission_rate=args.admission_rate,
            admission_burst=args.admission_burst,
        ),
        reliable=not args.unreliable,
        telemetry=telemetry,
    )
    return Scenario(
        simulation,
        lambda: simulation.run(
            points, publishers, arrival_times, churn=churn
        ),
        header,
        lambda report: ([], report.accounted and report.within_capacity),
    )


def _parity(simulation, points, report, lossy=False) -> Tuple[List[str], bool]:
    """What every ``--cluster`` scenario guarantees: every event
    in exactly one outcome bucket, nobody delivered twice, every miss
    explained by a physically-severed target, and the sharded
    MatchResults digest-identical to one unsharded never-failed
    broker's.  ``lossy``: a damaged WAL may lose intents journaled in
    its torn tail, so misses are not held against the run."""
    from .faults import unsharded_match_digest

    reference = unsharded_match_digest(
        simulation.broker, points, simulation.serviced_sequences
    )
    agreed = reference == report.sharded.match_digest
    lines = [
        "",
        f"unsharded reference digest: {reference}",
        f"digest agreement: {'yes' if agreed else 'NO'}",
    ]
    return lines, (
        report.sharded.accounted
        and report.duplicate_deliveries == 0
        and (lossy or report.sharded.unexplained_misses == 0)
        and report.sharded.match_parity
        and agreed
    )


def _assemble_cluster(args: argparse.Namespace, telemetry) -> Scenario:
    from .durability import FileWAL, MemoryWAL
    from .faults import FullStackChaosSimulation, build_cluster_plan
    from .replication import ShippingConfig
    from .sharding import ShardMap

    broker, points, publishers = _testbed(args)
    scenario = args.cluster_scenario
    plan, homes, standby_map, planned, corruptions = build_cluster_plan(
        broker.topology,
        ShardMap.plan(broker.partition, args.shards),
        scenario=scenario,
        # Crash windows fall among the arrivals; a successor needs room
        # after its kill for detection and settling.
        horizon=(
            float(args.events)
            if scenario == "restart"
            else max(float(args.events), 300.0)
        ),
        standby_count=args.standbys,
        migrations=args.migrations,
        crashes=args.crashes,
        crash_length=args.crash_length,
        corrupt=args.corrupt_wal,
        **_link_faults(args),
    )
    # The catch-up scenario must overflow the shipping buffer while
    # the laggard is isolated, so its way back is anti-entropy.
    shipping = (
        ShippingConfig(batch_ops=8, retain_ops=32, catchup_lag=24)
        if scenario == "catchup"
        else None
    )
    wal = None
    if args.wal_out:
        # A fresh run wants a fresh log, not appends onto a stale one.
        if os.path.exists(args.wal_out):
            os.unlink(args.wal_out)
        try:
            wal = FileWAL(args.wal_out)
        except OSError as error:
            _usage(error)

    def wal_of(node: int):
        # The other logs read the file's clock (0.0 until it is set).
        if node == homes[0]:
            return wal
        return MemoryWAL(clock=lambda: wal.clock())

    simulation = FullStackChaosSimulation(
        broker,
        plan,
        standby_map,
        num_shards=args.shards,
        shard_homes=homes,
        migrations=planned,
        corruptions=corruptions,
        shipping=shipping,
        checkpoint_every=args.checkpoint_every,
        wal_factory=None if wal is None else wal_of,
        telemetry=telemetry,
    )
    if wal is not None:
        wal.clock = lambda: simulation.simulator.now
    _retry_budget(simulation, args)

    def verdict(report):
        # On top of parity, every home the run lost was succeeded: by a
        # takeover whose write probe at the deposed primary was fenced,
        # or, with no standby, by ring exclusion and a rebalance.  A
        # partitioned zombie must also have drawn stale-epoch
        # rejections (with nobody to succeed it, it must be back in the
        # view), and a lagging standby an anti-entropy catch-up.  Each
        # crashed home restarted (or, with a standby, was taken over)
        # and a damaged log was cut back to its valid prefix.
        cluster, sharded = report.cluster, report.sharded
        lines, healthy = _parity(
            simulation, points, report, lossy=cluster.home_wal_corruptions > 0
        )
        lost = len(plan.broker_kills) + int(
            scenario == "partition" and args.standbys > 0
        )
        if args.standbys:
            healthy = healthy and cluster.takeovers >= lost
            healthy = healthy and (not lost or cluster.probe_rejections >= 1)
        else:
            healthy = healthy and sharded.rebalances >= lost
            healthy = healthy and (not lost or cluster.ring_exclusions >= 1)
        if scenario == "partition":
            healthy = healthy and (
                cluster.stale_rejections >= 1
                if args.standbys
                else cluster.members_dead == 0
            )
        if scenario == "catchup":
            healthy = healthy and report.shipping.catchups >= 1
        if scenario == "migrate":
            healthy = (
                healthy
                and report.exactly_once
                and sharded.migrations_completed == args.migrations
            )
        if scenario == "migrate-under-kill":
            healthy = (
                healthy
                and sharded.migrations_completed + sharded.migrations_aborted
                >= 1
            )
        if scenario == "restart":
            healthy = (
                healthy
                and cluster.home_crashes >= 1
                and cluster.restarts + cluster.takeovers
                == cluster.home_crashes
                and (not args.corrupt_wal or cluster.restart_truncated > 0)
            )
            lines += _missing_lines(report)
        if args.wal_out:
            lines += [
                "",
                f"wrote {args.wal_out} "
                f"(inspect with `repro wal --path {args.wal_out}`)",
            ]
        return lines, healthy

    def run():
        with wal or nullcontext():
            return simulation.run(points, publishers)

    return Scenario(
        simulation,
        run,
        f"cluster run ({scenario}): {broker.topology.num_nodes} nodes, "
        f"{len(points)} events, {args.shards} replicated shards at "
        f"homes {homes}, standbys {standby_map}",
        verdict,
    )


def _assemble_sessions(args: argparse.Namespace, telemetry) -> Scenario:
    from .faults.sessions import build_session_chaos

    scenario = args.session_scenario
    overrides = {"replay_rate": args.replay_rate}
    if args.lease is not None:
        overrides["lease"] = args.lease
    simulation, points, publishers, arrival_times = build_session_chaos(
        scenario,
        seed=args.seed,
        events=args.events,
        subscriptions=args.subscriptions,
        loss=args.loss,
        telemetry=telemetry,
        **overrides,
    )
    victim = simulation.victim.session_id

    def verdict(report):
        # The session guarantees: every matched obligation in exactly
        # one terminal bucket, no application-level duplicates, the
        # ghost demoted by lease — plus the scenario's machinery
        # actually fired.
        lines = []
        healthy = report.at_least_once and report.lease_expirations >= 1
        if scenario in ("crash", "flap"):
            delivered = simulation.delivered_seqs[victim]
            matched = simulation.matched_seqs[victim]
            settled = delivered | {
                entry.sequence
                for entry in simulation.dlq.entries()
                if entry.session_id == victim
            }
            parity = settled == matched
            lines = [
                "",
                f"victim catch-up parity: {'yes' if parity else 'NO'} "
                f"({len(delivered)} delivered of {len(matched)} matched)",
            ]
            healthy = healthy and parity and report.replay_sends >= 1
        if scenario == "slow-consumer":
            healthy = healthy and report.shed_retained >= 1
        if scenario == "poison":
            healthy = healthy and report.dlq_by_reason.get("nack", 0) >= 1
        return lines, healthy

    return Scenario(
        simulation,
        lambda: simulation.run(points, publishers, arrival_times),
        f"session run ({scenario}): "
        f"{simulation.broker.topology.num_nodes} nodes, "
        f"{len(points)} events, {len(simulation.matched_seqs)} durable "
        f"sessions (victim {victim}, "
        f"ghost {simulation.ghost.session_id})",
        verdict,
    )


_ASSEMBLERS = {
    "--overload": _assemble_overload,
    "--cluster": _assemble_cluster,
    "--sessions": _assemble_sessions,
}


def _assemble(args: argparse.Namespace, telemetry=None) -> Scenario:
    """The scenario the arguments describe, built but not yet run.

    ``chaos`` runs it as it is; ``stats`` and ``trace`` pass a live
    ``Telemetry`` — so all three verbs replay the same testbed, event
    stream, fault plan and harness parameters.
    """
    chosen = [
        flag
        for flag in _ASSEMBLERS
        if getattr(args, flag[2:].replace("-", "_"))
    ]
    if len(chosen) > 1:
        _usage(f"{' and '.join(chosen)} are mutually exclusive")
    assemble = _ASSEMBLERS[chosen[0]] if chosen else _assemble_default
    try:
        return assemble(args, telemetry)
    except ValueError as error:
        # A scenario the arguments cannot describe (crash windows that
        # do not fit, no shards, an empty retry budget, …) is a usage
        # error, in the library's own sentence.
        _usage(error)


def _cmd_chaos(args: argparse.Namespace) -> int:
    scenario = _assemble(args)
    report = scenario.run()
    lines, held = scenario.verdict(report)
    print(scenario.header)
    print(format_table(("metric", "value"), report.summary_rows()))
    for line in lines:
        print(line)
    return 0 if held else 1


def _cmd_sessions(args: argparse.Namespace) -> int:
    from .faults.sessions import build_session_chaos

    scenario = (
        args.scenario if args.sessions_command == "stats" else "poison"
    )
    try:
        simulation, points, publishers, arrival_times = build_session_chaos(
            scenario, seed=args.seed, events=args.events
        )
    except ValueError as error:
        _usage(error)
    report = simulation.run(points, publishers, arrival_times)

    if args.sessions_command == "stats":
        print(
            f"session cursor table ({scenario}, {len(points)} events):"
        )
        print(
            format_table(
                (
                    "session",
                    "state",
                    "durability",
                    "cursor",
                    "matched",
                    "delivered",
                    "dead-lettered",
                    "expired",
                ),
                report.sessions,
            )
        )
        print()
        print(format_table(("metric", "value"), report.summary_rows()))
        return 0 if report.at_least_once else 1

    entries = simulation.dlq.entries()
    print(
        f"dead-letter queue after the poison scenario "
        f"({len(entries)} entries):"
    )
    print(
        format_table(
            ("event", "session", "reason code", "quarantined at", "reason"),
            [
                (
                    entry.sequence,
                    entry.session_id,
                    entry.reason_code,
                    f"{entry.quarantined_at:.1f}",
                    entry.reason,
                )
                for entry in entries
            ],
        )
    )
    if args.redrive:
        # The operator fixed the consumer: every re-driven delivery
        # now succeeds (the poison set is forgiven).
        simulation._poison.clear()
        redriven = simulation.dlq.redrive(lambda entry: True)
        print(
            f"\nredrive: {len(redriven)} delivered, "
            f"{len(simulation.dlq)} still quarantined"
        )
    return 0 if report.at_least_once and entries else 1


def _cmd_shard(args: argparse.Namespace) -> int:
    from .faults.verifier import build_chaos_testbed
    from .sharding import ShardMap, ShardRouter

    try:
        broker, _density = build_chaos_testbed(
            seed=args.seed,
            subscriptions=args.subscriptions,
            num_groups=args.groups,
        )
        shard_map = ShardMap.plan(
            broker.partition, args.shards, virtual_nodes=args.virtual_nodes
        )
    except ValueError as error:
        _usage(error)
    if args.shard_command == "plan":
        rows = [
            (
                f"shard {shard}",
                f"subsets {shard_map.subsets_of(shard)} "
                f"load {shard_map.shard_loads()[shard]:.1f}",
            )
            for shard in range(shard_map.num_shards)
        ]
        rows.append(("imbalance (max/mean)", f"{shard_map.imbalance():.3f}"))
        print(
            f"shard plan: {len(broker.partition.groups)} subsets over "
            f"{args.shards} shards (catchall cells via hash ring, "
            f"{args.virtual_nodes} virtual nodes each)"
        )
        print(format_table(("shard", "assignment"), rows))
        return 0
    router = ShardRouter(broker, shard_map)
    rows = [
        (
            f"shard {stat['shard']}",
            f"subsets {stat['subsets']} "
            f"subscriptions {stat['subscriptions']} "
            f"load {stat['planned_load']:.1f}",
        )
        for stat in router.shard_stats()
    ]
    rows.append(("imbalance (max/mean)", f"{shard_map.imbalance():.3f}"))
    rows.append(
        (
            "scatter factor",
            f"{router.scattered / max(len(broker.table), 1):.2f} "
            f"shards/subscription",
        )
    )
    print(
        f"shard stats: {len(broker.table)} subscriptions scattered "
        f"into {router.scattered} shard-level registrations"
    )
    print(format_table(("shard", "assignment"), rows))
    return 0


def _run_instrumented(args: argparse.Namespace):
    """The scenario ``repro chaos`` would run, with telemetry on.

    Returns ``(held, telemetry, wall seconds of the run)``; ``held()``
    is the verdict ``chaos`` exits on (``trace`` never asks, so it
    never pays for a reference digest).  ``stats`` and ``trace`` share
    this, so ``repro trace --event N`` dumps exactly the event ``repro
    stats`` counted and ``repro chaos`` verified.
    """
    from time import perf_counter

    from .telemetry import Telemetry

    telemetry = Telemetry(seed=args.seed)
    scenario = _assemble(args, telemetry)
    started = perf_counter()
    report = scenario.run()
    wall = perf_counter() - started
    return (lambda: scenario.verdict(report)[1]), telemetry, wall


# The optional sections of `repro stats`: (mode, title, hint printed
# when the mode is off or None for none, probe metric, rows).  A
# section is live when its probe metric was registered (`--cluster`
# journals, so it shows the durability section and its own).  A row
# is (label, metric) for one counter or gauge, or (label, metric,
# kind): "each" is one row per label child of the family, the label
# formatted from the child's labels; "sum" is the family's total;
# "p95" is a histogram's 95th percentile, shown once it observed
# something.
_STATS_SECTIONS = (
    (
        "overload",
        "broker health (overload protection):",
        "broker health: overload protection inactive "
        "(re-run with --overload for the saturation pipeline)",
        "overload.queue_depth",
        (
            ("ingress queue depth (at last arrival)", "overload.queue_depth"),
            ("entered {state}", "overload.health_transitions", "each"),
            ("shed: {reason}", "overload.shed", "each"),
            ("expired in broker", "overload.expired"),
            ("late drops at receiver", "overload.late_drops"),
            ("degraded (group flood)", "broker.degraded_events"),
            ("short-circuited (breaker open)", "transport.short_circuited"),
        ),
    ),
    (
        "cluster",
        "broker durability (write-ahead log):",
        "broker durability: journaling inactive "
        "(re-run with --cluster for the WAL pipeline)",
        "wal.appends",
        (
            ("wal appends (total)", "wal.appends", "sum"),
            ("wal appends: {kind}", "wal.appends", "each"),
            ("checkpoints", "wal.checkpoints"),
            ("recoveries", "recovery.runs"),
            ("records replayed", "recovery.replayed"),
            ("wal bytes truncated", "recovery.truncated"),
            ("in-flight found on recovery", "recovery.inflight"),
            ("in-flight wiped by crash", "transport.wiped"),
            ("events deferred while down", "broker.deferred"),
        ),
    ),
    (
        "cluster",
        "shard cluster (membership + per-shard failover):",
        "shard cluster: inactive "
        "(re-run with --cluster for the replicated-shard pipeline)",
        "cluster.epoch",
        (
            ("membership view epoch", "cluster.epoch"),
            ("shard takeovers", "cluster.takeovers"),
            ("ring exclusions (last resort)", "cluster.ring_exclusions"),
            ("ex-primaries fenced", "cluster.fenced"),
            ("writes rejected by fencing", "cluster.fenced_writes"),
            (
                "publishes rerouted after takeover",
                "cluster.failover_reroutes",
            ),
            ("shard {shard} epoch", "cluster.shard_epoch", "each"),
            (
                "shard {shard} lag @ standby {standby}",
                "cluster.shard_lag",
                "each",
            ),
            ("takeover duration p95", "cluster.takeover_duration", "p95"),
        ),
    ),
    (
        "sessions",
        "durable sessions (retained log + catch-up replay):",
        None,
        "sessions.events_retained",
        (
            ("events retained", "sessions.events_retained"),
            ("replay sends", "sessions.replay_sends"),
            ("lease expirations", "sessions.lease_expired"),
            ("dead-lettered: {reason}", "sessions.deadlettered", "each"),
            ("shed but retained", "sessions.shed_retained"),
            (
                "retention reclaimed (bytes)",
                "sessions.retention_truncated_bytes",
            ),
        ),
    ),
)


def _section_rows(metrics, rows) -> List[Tuple[str, object]]:
    """Render one `_STATS_SECTIONS` row list against the registry."""
    rendered: List[Tuple[str, object]] = []
    for label, name, *rest in rows:
        kind = rest[0] if rest else "value"
        if kind == "value":
            rendered.append((label, int(metrics.value(name))))
        elif kind == "p95":
            histogram = metrics.histogram(name)
            if histogram.count:
                rendered.append((label, f"{histogram.p95:.1f}"))
        else:
            family = metrics.get(name)
            children = (
                sorted(family.children.items()) if family is not None else []
            )
            if kind == "sum":
                total = sum(int(metric.value) for _, metric in children)
                rendered.append((label, total))
            else:
                rendered.extend(
                    (label.format(**dict(labels)), int(metric.value))
                    for labels, metric in children
                )
    return rendered


def _cmd_stats(args: argparse.Namespace) -> int:
    from .telemetry.exporters import write_prometheus, write_spans_jsonl

    held, telemetry, wall = _run_instrumented(args)
    metrics = telemetry.metrics

    def counter(name: str, **labels) -> int:
        return int(metrics.value(name, **labels))

    latency = metrics.histogram("broker.match_latency_us")
    events = counter("broker.events")
    rows = [
        ("events", events),
        ("events/sec", f"{events / wall:.1f}" if wall > 0 else "inf"),
        ("match latency p50 (us)", f"{latency.p50:.1f}"),
        ("match latency p95 (us)", f"{latency.p95:.1f}"),
        ("match latency p99 (us)", f"{latency.p99:.1f}"),
        ("multicasts", counter("decision.method", method="multicast")),
        ("unicasts", counter("decision.method", method="unicast")),
        ("not sent", counter("decision.method", method="not_sent")),
        ("deliveries", counter("transport.delivered")),
        ("retries", counter("transport.retries")),
        ("reroutes", counter("transport.reroutes")),
        ("gave up", counter("transport.gave_up")),
        (
            "duplicates suppressed",
            counter("transport.duplicates_suppressed"),
        ),
        ("acks sent", counter("transport.acks_sent")),
        (
            "link retransmissions (ARQ)",
            counter("net.link.retransmissions"),
        ),
    ]
    print(
        f"instrumented run: {args.events} events, loss={args.loss}, "
        f"crashes={args.crashes}x{args.crash_length}, seed={args.seed}"
    )
    print(format_table(("metric", "value"), rows))

    for mode, title, hint, probe, section in _STATS_SECTIONS:
        if metrics.get(probe) is not None:
            print("\n" + title)
            table = _section_rows(metrics, section)
            print(format_table(("signal", "value"), table))
        elif hint is not None and not getattr(args, mode):
            print("\n" + hint)

    per_link = []
    family = metrics.get("net.link.bytes")
    if family is not None:
        for labels, metric in family.children.items():
            per_link.append((dict(labels)["link"], int(metric.value)))
    per_link.sort(key=lambda item: (-item[1], item[0]))
    total_bytes = sum(size for _, size in per_link)
    print(
        f"\nlink traffic: {total_bytes} bytes over "
        f"{len(per_link)} links; busiest {min(args.top_links, len(per_link))}:"
    )
    print(
        format_table(
            ("link", "bytes", "copies"),
            [
                (
                    link,
                    size,
                    int(metrics.value("net.link.transmissions", link=link)),
                )
                for link, size in per_link[: args.top_links]
            ],
        )
    )
    if args.metrics_out:
        write_prometheus(metrics, args.metrics_out)
        print(f"\nwrote {args.metrics_out} (Prometheus text format)")
    if args.trace_out:
        write_spans_jsonl(telemetry.tracer.spans, args.trace_out)
        print(f"wrote {args.trace_out} ({len(telemetry.tracer.spans)} spans)")
    if events == 0:
        # Every harness meters `broker.events` through the one publish
        # plan; a run that counted nothing measured nothing.
        print("error: the instrumented run counted no events", file=sys.stderr)
        return 1
    return 0 if held() else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry.exporters import (
        format_span_tree,
        span_tree,
        spans_to_jsonl,
    )

    if args.event < 0 or args.event >= args.events:
        print(
            f"error: --event {args.event} outside workload "
            f"[0, {args.events})",
            file=sys.stderr,
        )
        return 2
    _, telemetry, _ = _run_instrumented(args)
    ordered = span_tree(telemetry.tracer.spans, args.event)
    if not ordered:
        print(
            f"no spans recorded for event {args.event} "
            "(event may have matched nobody)",
            file=sys.stderr,
        )
        return 1
    if args.pretty:
        print(format_span_tree(ordered))
        return 0
    payload = "\n".join(spans_to_jsonl(ordered)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {args.out} ({len(ordered)} spans)", file=sys.stderr)
    else:
        print(payload, end="")
    return 0


def _cmd_wal(args: argparse.Namespace) -> int:
    import json
    from collections import Counter as TallyCounter

    from .durability import FileWAL, RecordKind

    if not os.path.exists(args.path):
        print(f"error: {args.path}: no such file", file=sys.stderr)
        return 2
    try:
        wal = FileWAL(args.path)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with wal:
        result = wal.scan()
    by_kind = TallyCounter(record.kind for record in result.records)
    rows = [
        ("base lsn", wal.base_lsn),
        ("end lsn", wal.end_lsn),
        ("records", len(result.records)),
    ]
    rows.extend(
        (f"  {kind.name.lower()}", by_kind[kind])
        for kind in RecordKind
        if by_kind[kind]
    )
    rows.append(
        ("status", "clean" if result.clean else "CORRUPT")
    )
    print(f"wal: {args.path}")
    print(format_table(("field", "value"), rows))
    if args.tail and result.records:
        tail = result.records[-args.tail :]
        print(f"\nlast {len(tail)} records:")

        def render(body: dict) -> str:
            text = json.dumps(body, sort_keys=True)
            return text if len(text) <= 64 else text[:61] + "..."

        print(
            format_table(
                ("lsn", "kind", "body"),
                [
                    (record.lsn, record.kind.name.lower(), render(record.body))
                    for record in tail
                ],
            )
        )
    if not result.clean:
        print(
            f"\n{result.corruption}\n"
            f"{wal.end_lsn - result.valid_end} trailing bytes are "
            f"unreadable; recovery would truncate at lsn "
            f"{result.valid_end}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .statics import (
        DEFAULT_BASELINE_NAME,
        Baseline,
        lint_paths,
        render_json,
        render_rule_table,
        render_text,
    )

    if args.list_rules:
        print(render_rule_table())
        return 0

    baseline_path = args.baseline_file or DEFAULT_BASELINE_NAME
    try:
        if args.baseline == "apply":
            baseline = Baseline.load(baseline_path)
        else:
            baseline = None
        result = lint_paths(args.paths, rules=args.rules, baseline=baseline)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.baseline == "write":
        Baseline.from_findings(result.findings).dump(baseline_path)
        print(
            f"wrote {baseline_path}: {len(result.findings)} "
            f"grandfathered finding(s) across {result.files} files"
        )
        return 0

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code


def _cmd_dot(args: argparse.Namespace) -> int:
    from .network.visualize import write_dot

    topology, _ = load_testbed(args.testbed)
    path = write_dot(
        topology,
        args.out,
        include_stub_nodes=not args.backbone_only,
    )
    print(
        f"wrote {path} ({topology.num_nodes} nodes); render with e.g. "
        f"`dot -Kneato -Tsvg {path} -o topology.svg`"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "tune": _cmd_tune,
        "experiments": _cmd_experiments,
        "chaos": _cmd_chaos,
        "shard": _cmd_shard,
        "sessions": _cmd_sessions,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
        "wal": _cmd_wal,
        "lint": _cmd_lint,
        "dot": _cmd_dot,
    }
    try:
        status = handlers[args.command](args)
        # Flush inside the `try`: a reader that closed the pipe early
        # (`repro trace ... --pretty | head -n 1`) must surface here, not
        # as a traceback when the interpreter flushes at shutdown.
        sys.stdout.flush()
    except BrokenPipeError:
        # Point fd 1 at devnull so that shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
