"""The benchmark's own checks.  Run with ``pytest bench/tests``.

Not part of tier-1 (``testpaths`` is ``tests``): these start the whole
benchmark in ``--smoke`` size, which takes about a minute.
"""

from __future__ import annotations

import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from bench.harness import Rep, run_workload, steady_rate  # noqa: E402
from bench.layers import PATCH_POINTS, SCHEDULER  # noqa: E402
from bench.tracing import Patches, Tracer  # noqa: E402
from bench.workloads import NAMES, make  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _record(done: subprocess.CompletedProcess) -> dict:
    path = re.search(r"^record: (\S+)$", done.stdout, re.M).group(1)
    return json.loads((ROOT / path).read_text())


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)


def test_smoke_emits_every_listed_metric():
    done = _bench("--smoke", "--trace")
    assert done.returncode == 0, done.stdout + done.stderr
    record = _record(done)
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in NAMES:
            emitted = record["workloads"][workload][section]
            assert set(emitted) == set(listed), workload
            for name, entry in emitted.items():
                assert entry["unit"] == listed[name]
                assert f"  {name} " in done.stdout
    for workload in NAMES:
        assert record["workloads"][workload]["failed"] == 0
        for metric in SPEC["end_to_end"]:
            value = record["workloads"][workload]["end_to_end"][metric["name"]]
            assert value["value"] > 0


def test_trace_shares_add_up_to_one():
    done = _bench("--smoke", "--trace", "--only", "stack_sessions_crash")
    assert done.returncode == 0, done.stdout + done.stderr
    layer = _record(done)["workloads"]["stack_sessions_crash"]["per_layer"]
    shares = sum(
        entry["value"]
        for name, entry in layer.items()
        if name.endswith("share") and not name.startswith("faults.delivered")
    )
    assert abs(shares - 1.0) <= 0.02


def test_corrupted_oracle_fails_the_run():
    done = _bench("--smoke", "--only", "core_fig5_1k", "--corrupt-oracle")
    assert done.returncode != 0
    result = _record(done)["workloads"]["core_fig5_1k"]
    assert result["failed"] > 0
    assert result["failed_ops_share"] > 0


def test_steady_rate_is_the_median_rep_on_the_reference_hosts_scale():
    def rep(work, slowdown):
        return Rep(
            events=6,
            work_ns=np.array(work) * 10**9,
            slowdown=None if slowdown is None else np.array(slowdown),
        )

    # A host twice as slow during the second unit: 1 + 4 / 2 seconds.
    assert rep([1, 4], [1.0, 2.0]).steady_seconds == 3.0
    assert rep([1, 4], None).steady_seconds == 5.0
    reps = [rep([2], [1.0]), rep([6], [2.0]), rep([12], [1.0])]
    assert steady_rate(reps) == 6 / 3.0


def _originals():
    found = []
    points = [(m, c, a) for m, c, a, _ in PATCH_POINTS]
    points += [(SCHEDULER[0], SCHEDULER[1], a) for a in SCHEDULER[2]]
    for module, owner_name, attr in points:
        owner = __import__(module, fromlist=["_"])
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        found.append(inspect.getattr_static(owner, attr))
    return found


def test_patch_points_exist_and_are_restored():
    before = _originals()
    with Patches(Tracer(capacity=16), PATCH_POINTS, SCHEDULER):
        during = _originals()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _originals()))


def test_untraced_rate_is_unchanged_by_a_traced_run(tmp_path):
    def rate(trace: bool) -> float:
        workload = make("core_fig5_1k", True, False, tmp_path)
        outcome = run_workload(workload, 7, 0.5, trace)
        assert outcome.failed == 0
        return outcome.end_to_end["events_per_s"]

    before = _originals()
    first = rate(False)
    rate(True)
    assert all(a is b for a, b in zip(before, _originals()))
    again = rate(False)
    # Loose: a shared two-core box moves a half-second rate by 20 %.
    assert 0.6 < again / first < 1.67
