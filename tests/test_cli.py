"""Tests for the command-line interface."""

import pytest

from repro.cli import _build_parser, main


@pytest.fixture(scope="module")
def testbed_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "testbed.json"
    code = main(
        [
            "generate",
            "--seed", "7",
            "--subscriptions", "150",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_loadable_testbed(self, testbed_file):
        from repro import load_testbed

        topology, table = load_testbed(testbed_file)
        assert topology.num_nodes > 100
        assert len(table) == 150

    def test_output_message(self, testbed_file, capsys):
        main(
            [
                "generate",
                "--seed", "8",
                "--subscriptions", "10",
                "--out", str(testbed_file.parent / "other.json"),
            ]
        )
        out = capsys.readouterr().out
        assert "10 subscriptions" in out


class TestRun:
    def test_prints_tally(self, testbed_file, capsys):
        code = main(
            [
                "run",
                "--testbed", str(testbed_file),
                "--groups", "5",
                "--events", "100",
                "--threshold", "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "improvement over unicast" in out
        assert "multicasts" in out

    @pytest.mark.parametrize("algorithm", ["forgy", "kmeans", "pairwise", "mst"])
    def test_all_algorithms_accepted(self, testbed_file, algorithm, capsys):
        code = main(
            [
                "run",
                "--testbed", str(testbed_file),
                "--algorithm", algorithm,
                "--groups", "4",
                "--events", "50",
            ]
        )
        assert code == 0


class TestTune:
    def test_prints_per_group_table(self, testbed_file, capsys):
        code = main(
            [
                "tune",
                "--testbed", str(testbed_file),
                "--groups", "5",
                "--events", "150",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-group thresholds" in out
        assert "oracle bound" in out


class TestDot:
    def test_exports_renderable_dot(self, testbed_file, tmp_path, capsys):
        out = tmp_path / "topo.dot"
        code = main(
            ["dot", "--testbed", str(testbed_file), "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("graph topology {")
        assert "wrote" in capsys.readouterr().out

    def test_backbone_only(self, testbed_file, tmp_path):
        out = tmp_path / "backbone.dot"
        main(
            [
                "dot",
                "--testbed", str(testbed_file),
                "--out", str(out),
                "--backbone-only",
            ]
        )
        assert "stub " in out.read_text()


class TestChaos:
    def test_reliable_run_verifies_exactly_once(self, capsys):
        code = main(
            [
                "chaos",
                "--events", "120",
                "--subscriptions", "120",
                "--crashes", "1",
                "--crash-length", "40",
            ]
        )
        out = capsys.readouterr().out
        assert "exactly-once" in out
        assert "reliable" in out
        assert code == 0  # guarantee held

    def test_unreliable_run_reports_losses(self, capsys):
        code = main(
            [
                "chaos",
                "--events", "120",
                "--subscriptions", "120",
                "--crashes", "1",
                "--crash-length", "40",
                "--unreliable",
            ]
        )
        assert code == 0  # informational mode never fails the build
        out = capsys.readouterr().out
        assert "fire-and-forget" in out
        assert "lost (no retransmission)" in out


class TestStats:
    ARGS = [
        "--events", "60",
        "--subscriptions", "120",
        "--seed", "7",
        "--loss", "0.08",
        "--crashes", "1",
        "--crash-length", "30",
    ]

    def test_prints_pipeline_metrics(self, capsys):
        code = main(["stats", *self.ARGS])
        assert code == 0  # run stayed exactly-once
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert "match latency p50 (us)" in out
        assert "match latency p95 (us)" in out
        assert "match latency p99 (us)" in out
        assert "multicasts" in out
        assert "unicasts" in out
        assert "retries" in out
        assert "duplicates suppressed" in out
        assert "link traffic:" in out
        assert "bytes" in out

    def test_exports_prometheus_and_jsonl(self, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "metrics.prom"
        trace_path = tmp_path / "spans.jsonl"
        code = main(
            [
                "stats",
                *self.ARGS,
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        prom = metrics_path.read_text()
        assert "# TYPE broker_events counter" in prom
        assert "# TYPE broker_match_latency_us histogram" in prom
        lines = trace_path.read_text().strip().splitlines()
        names = {json.loads(line)["name"] for line in lines}
        assert {"event", "match", "route", "deliver"} <= names


    def test_cluster_run_counts_its_events(self, capsys):
        """The sharded copy of the publish loop had dropped the
        ``broker.events`` counter: this printed ``events 0``."""
        import re

        code = main(["stats", "--cluster", *self.ARGS[:8]])
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"^ *events +60$", out, re.MULTILINE)
        rate = re.search(r"^ *events/sec +([0-9.]+)$", out, re.MULTILINE)
        assert float(rate.group(1)) > 0.0

    def test_sharded_run_is_metered_and_verified(self, capsys):
        """``stats`` used to declare its own, shorter option list: it
        had no sharded mode at all.  The sharded run is the
        zero-standby cluster; its killed home is excluded, which the
        verdict requires and the run exits 0 on."""
        import re

        code = main(
            [
                "stats", "--cluster", "--standbys", "0",
                "--events", "100", "--subscriptions", "150",
            ]
        )
        assert code == 0
        events = re.search(
            r"^ *events +([0-9]+)$", capsys.readouterr().out, re.MULTILINE
        )
        assert int(events.group(1)) > 0

    def test_a_run_that_counted_nothing_fails(self, capsys, monkeypatch):
        from repro.core.broker import PubSubBroker

        plan = PubSubBroker.plan
        # Meter into the broker's own (null) registry, as a harness
        # that forgot to pass its telemetry would.
        monkeypatch.setattr(
            PubSubBroker,
            "plan",
            lambda self, event, matcher=None, degraded=False, telemetry=None: (
                plan(self, event, matcher, degraded)
            ),
        )
        assert main(["stats", *self.ARGS]) == 1
        assert "counted no events" in capsys.readouterr().err


SMALL = ["--events", "40", "--subscriptions", "80"]


class TestUsageErrors:
    """Arguments no scenario can be built from: exit 2, nothing on
    stdout and the library's sentence as exactly one ``error: ...``
    line on stderr.  Apart from the first two, the ``--overload
    --cluster`` row (which recited four flags instead of the two given)
    and the retired ``--sharded`` flag, every row used to die with a
    traceback and exit 1, because each copy of the scenario assembly
    guarded only its own plan builder."""

    CASES = [
        (
            [
                "stats", "--cluster", "--cluster-scenario", "restart",
                "--events", "80",
            ],
            "crash_length 50.0 leaves no up-time between windows",
        ),
        (
            [
                "trace", "--cluster", "--cluster-scenario", "restart",
                "--events", "80", "--event", "5",
            ],
            "crash_length 50.0 leaves no up-time between windows",
        ),
        (["chaos", "--crashes", "99", *SMALL], "cannot crash 99 brokers"),
        (["chaos", "--crash-length", "-5", *SMALL], "BrokerCrash: window"),
        (["chaos", "--max-attempts", "0", *SMALL], "max_attempts must be"),
        (
            ["chaos", "--subscriptions", "0", "--events", "40"],
            "need at least one rectangle",
        ),
        (["chaos", "--groups", "0", *SMALL], "num_groups must be positive"),
        (["chaos", "--threshold", "-1", *SMALL], "threshold must lie in"),
        (
            ["chaos", "--overload", "--queue-capacity", "0", *SMALL],
            "OverloadConfig: queue_capacity",
        ),
        (
            ["chaos", "--overload", "--service-time", "-1", *SMALL],
            "OverloadConfig: service_time",
        ),
        (
            ["chaos", "--overload", "--ttl", "-1", *SMALL],
            "OverloadConfig: ttl",
        ),
        (
            ["chaos", "--overload", "--admission-rate", "-1", *SMALL],
            "OverloadConfig: admission_rate",
        ),
        (
            [
                "chaos", "--overload", "--admission-rate", "1",
                "--admission-burst", "0", *SMALL,
            ],
            "TokenBucket: burst",
        ),
        (
            [
                "chaos", "--cluster", "--cluster-scenario", "restart",
                "--crash-length", "5", "--checkpoint-every", "0", *SMALL,
            ],
            "ShardJournal: checkpoint_every",
        ),
        (
            ["chaos", "--cluster", "--standbys", "-1", *SMALL],
            "standby_count must be >= 0 (got -1)",
        ),
        (["stats", "--crashes", "99", *SMALL], "cannot crash 99 brokers"),
        (
            ["trace", "--event", "2", "--crashes", "99", *SMALL],
            "cannot crash 99 brokers",
        ),
        (["sessions", "stats", "--events", "0"], "BrokerCrash: window"),
        (
            ["shard", "plan", "--subscriptions", "0"],
            "need at least one rectangle",
        ),
        (
            [
                "chaos", "--cluster", "--cluster-scenario", "restart",
                "--crash-length", "5", "--wal-out", "/no/such/dir/x.wal",
                *SMALL,
            ],
            "[Errno 2] No such file or directory",
        ),
        (
            ["stats", "--overload", "--cluster", *SMALL],
            "--overload and --cluster are mutually exclusive",
        ),
        # The sharded harness is `--cluster --standbys 0` now.
        (
            ["chaos", "--sharded", *SMALL],
            "unrecognized arguments: --sharded",
        ),
    ]

    @pytest.mark.parametrize(
        "argv, sentence", CASES, ids=[str(n) for n in range(len(CASES))]
    )
    def test_one_error_line_and_exit_two(self, argv, sentence, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: " + sentence)


class TestInstrumentedUsageErrors:
    """Whichever builder refuses, the refusal reaches the one ``try``
    around scenario assembly."""

    @pytest.mark.parametrize(
        "flag, builder",
        [
            pytest.param(
                "--cluster --cluster-scenario restart",
                "repro.faults.build_cluster_plan",
                id="restart",
            ),
            ("--cluster", "repro.faults.build_cluster_plan"),
            ("--cluster", "repro.sharding.ShardMap.plan"),
        ],
    )
    def test_every_plan_builder_is_covered(
        self, flag, builder, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise ValueError("no such scenario")

        monkeypatch.setattr(builder, refuse)
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "stats", *flag.split(),
                    "--events", "30", "--subscriptions", "60",
                ]
            )
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == "error: no such scenario\n"


class TestTrace:
    ARGS = [
        "--events", "60",
        "--subscriptions", "120",
        "--seed", "7",
        "--loss", "0.08",
        "--crashes", "1",
        "--crash-length", "30",
    ]

    def _first_delivered_event(self, capsys):
        # Find an event that actually routed (trace has >1 span).
        import json

        for candidate in range(10):
            code = main(["trace", "--event", str(candidate), *self.ARGS])
            out = capsys.readouterr().out
            if code == 0:
                spans = [json.loads(line) for line in out.splitlines()]
                if len(spans) > 1:
                    return candidate, spans
        pytest.fail("no routed event in the first 10")

    def test_emits_well_formed_span_tree(self, capsys):
        event, spans = self._first_delivered_event(capsys)
        seen = set()
        for span in spans:
            assert span["trace_id"] == event
            assert span["parent_id"] is None or span["parent_id"] in seen
            seen.add(span["span_id"])
        assert spans[0]["name"] == "event"
        assert spans[0]["parent_id"] is None

    def test_pretty_mode(self, capsys):
        event, _ = self._first_delivered_event(capsys)
        code = main(
            ["trace", "--event", str(event), "--pretty", *self.ARGS]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("event ")
        assert "\n  " in out  # children are indented

    def test_cluster_trace_has_its_root(self, capsys):
        """Used to print bare ``deliver`` spans with no ``event`` root."""
        code = main(
            ["trace", "--cluster", "--event", "3", "--pretty", *self.ARGS[:8]]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("event ")
        assert "\n  distribution-decision " in out
        assert "\n  route " in out

    def test_sessions_trace_follows_a_replayed_delivery(self, capsys):
        """An event the crashed victim received by catch-up replay: its
        ``event`` root and the replayed ``deliver`` share a trace id."""
        import json

        from repro.faults import build_session_chaos

        args = ["--sessions", "--events", "100", "--subscriptions", "150"]
        simulation, points, publishers, times = build_session_chaos(
            "crash", events=100, subscriptions=150, loss=0.05
        )
        simulation.run(points, publishers, times)
        victim = simulation.victim
        # The victim is detached over [35, 65): what it matched there
        # and still received came by replay after the resume at 65.
        replayed = sorted(
            sequence
            for sequence in simulation.delivered_seqs[victim.session_id]
            if 35 <= sequence < 65
        )
        assert replayed
        event = replayed[0]
        assert main(["trace", "--event", str(event), *args]) == 0
        spans = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert {span["trace_id"] for span in spans} == {event}
        assert spans[0]["name"] == "event"
        assert spans[0]["parent_id"] is None
        assert [
            span
            for span in spans
            if span["name"] == "deliver"
            and span["attributes"]["target"] == victim.subscriber
            and span["start"] >= 65.0
        ]

    def test_out_of_range_event_rejected(self, capsys):
        code = main(["trace", "--event", "999", *self.ARGS])
        assert code == 2
        assert "outside workload" in capsys.readouterr().err

    def test_deterministic_across_runs(self, capsys):
        event, first = self._first_delivered_event(capsys)
        main(["trace", "--event", str(event), *self.ARGS])
        second = capsys.readouterr().out
        import json

        assert [json.dumps(s, sort_keys=True, separators=(",", ":"))
                for s in first] == second.strip().splitlines()


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_modes_rejected(self, testbed_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--testbed", str(testbed_file),
                    "--modes", "7",
                ]
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--loss", "1.7"],
            ["chaos", "--loss", "-0.1"],
            ["chaos", "--duplicate", "1.7"],
            ["chaos", "--cluster", "--loss", "nan"],
            ["stats", "--loss", "1.7"],
            ["trace", "--event", "0", "--loss", "inf"],
        ],
    )
    def test_probabilities_validated_at_the_boundary(self, argv, capsys):
        """Used to escape as a ``FaultPlan`` ValueError traceback with
        exit 1, after the testbed had been built."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == (
            f"error: argument {argv[-2]}: must lie in [0, 1] "
            f"(got {argv[-1]})"
        )

    def test_probability_must_be_a_number(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--loss", "lots"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            "error: argument --loss: invalid probability value: 'lots'\n"
        )

    def test_probability_bounds_are_inclusive(self):
        args = _build_parser().parse_args(
            ["chaos", "--loss", "0", "--duplicate", "1"]
        )
        assert (args.loss, args.duplicate) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["wal", "--path", "broker.wal", "--tail", "-2"],
            ["stats", "--top-links", "-1"],
        ],
    )
    def test_counts_validated_at_the_boundary(self, argv, capsys):
        """A negative count used to slice from the wrong end: ``--tail
        -2`` printed every record but the first two, ``--top-links -1``
        all links but the last."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: argument {argv[-2]}: must be >= 0 (got {argv[-1]})\n"
        )

    def test_zero_count_accepted(self):
        args = _build_parser().parse_args(
            ["wal", "--path", "broker.wal", "--tail", "0"]
        )
        assert args.tail == 0

    def test_one_scenario_option_list(self):
        """``stats`` and ``trace`` take what ``chaos`` takes plus their
        own output options: a second list cannot grow back."""
        (verbs,) = _build_parser()._subparsers._group_actions

        def options(verb):
            return {
                option
                for action in verbs.choices[verb]._actions
                for option in action.option_strings
            }

        scenario = options("chaos")
        assert options("stats") == scenario | {
            "--top-links", "--metrics-out", "--trace-out"
        }
        assert options("trace") == scenario | {"--event", "--pretty", "--out"}


class TestClosedPipe:
    def test_reader_that_leaves_early_is_a_quiet_exit(self):
        """``repro trace ... --pretty | head -n 1`` used to end in a
        ``BrokenPipeError`` traceback."""
        import os
        import subprocess
        import sys

        import repro

        source = os.path.dirname(os.path.dirname(repro.__file__))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "lint", "--list-rules"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=source),
        )
        process.stdout.close()  # the reader is gone before the first byte
        stderr = process.stderr.read().decode()
        process.stderr.close()
        assert process.wait(timeout=60) == 1
        assert "Traceback" not in stderr
        assert "Exception ignored" not in stderr


class TestLint:
    """The `repro lint` verb: rules, formats, baseline lifecycle."""

    @pytest.fixture()
    def violation_tree(self, tmp_path):
        scratch = tmp_path / "src" / "repro" / "core"
        scratch.mkdir(parents=True)
        (scratch / "sick.py").write_text(
            "import time\n"
            "import random\n"
            "a = time.time()\n"
            "b = random.random()\n"
        )
        return tmp_path

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(
            "from __future__ import annotations\n\nx: int = 1\n"
        )
        code = main(["lint", str(tmp_path), "--baseline", "skip"])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violations_exit_one_and_name_the_rule(
        self, violation_tree, capsys
    ):
        code = main(["lint", str(violation_tree), "--baseline", "skip"])
        assert code == 1
        out = capsys.readouterr().out
        assert "DET01" in out and "DET02" in out
        assert "fix:" in out  # hints ride along

    def test_rule_flag_restricts(self, violation_tree, capsys):
        code = main(
            [
                "lint", str(violation_tree),
                "--rule", "DET02",
                "--baseline", "skip",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "DET02" in out and "DET01" not in out

    def test_unknown_rule_exits_two(self, violation_tree, capsys):
        code = main(
            ["lint", str(violation_tree), "--rule", "NOPE99"]
        )
        assert code == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_json_format_is_machine_readable(self, violation_tree, capsys):
        import json

        code = main(
            [
                "lint", str(violation_tree),
                "--format", "json",
                "--baseline", "skip",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        assert payload["counts"]["per_rule"] == {"DET01": 1, "DET02": 1}
        rules = [f["rule"] for f in payload["findings"]]
        assert rules == ["DET01", "DET02"]
        assert all("fingerprint" in f for f in payload["findings"])

    def test_baseline_write_then_apply_round_trip(
        self, violation_tree, tmp_path, capsys
    ):
        baseline_file = tmp_path / "baseline.json"
        code = main(
            [
                "lint", str(violation_tree),
                "--baseline", "write",
                "--baseline-file", str(baseline_file),
            ]
        )
        assert code == 0
        assert "2 grandfathered" in capsys.readouterr().out
        # With the baseline applied the same tree goes green...
        code = main(
            [
                "lint", str(violation_tree),
                "--baseline-file", str(baseline_file),
            ]
        )
        assert code == 0
        assert "2 baselined" in capsys.readouterr().out
        # ...but a fresh violation still fails.
        sick = violation_tree / "src" / "repro" / "core" / "sick.py"
        sick.write_text(sick.read_text() + "c = time.monotonic()\n")
        code = main(
            [
                "lint", str(violation_tree),
                "--baseline-file", str(baseline_file),
            ]
        )
        assert code == 1

    def test_list_rules_prints_catalogue(self, capsys):
        code = main(["lint", "--list-rules"])
        assert code == 0
        out = capsys.readouterr().out
        for rule_code in (
            "DET01", "DET02", "DET03", "ASSERT01",
            "ANN01", "ERR01", "IO01", "EXC01",
        ):
            assert rule_code in out
        assert "why:" in out and "fix:" in out

    def test_missing_target_exits_two(self, capsys):
        code = main(["lint", "definitely/not/a/dir"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_repo_gate_via_cli(self, capsys):
        # The shipped tree, the checked-in baseline, exit 0: the same
        # invocation CI runs.
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[1]
        code = main(
            [
                "lint", str(repo / "src"),
                "--baseline-file", str(repo / "lint-baseline.json"),
            ]
        )
        assert code == 0
