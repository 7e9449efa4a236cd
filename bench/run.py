#!/usr/bin/env python3
"""One command that measures the broker and the full stack.

Two ways in:

``python3 bench/run.py --seed 2003 [--trace] [--only W] [--smoke] [--runs N]``
    Every workload, each in its own subprocess (clean caches, its own
    ``ru_maxrss``), every metric printed by name with its unit, one
    record written to ``bench/out/``.  ``--trace`` adds the per-layer
    pass.  Exit status is non-zero if any oracle failed.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process; the last line of standard output is
    one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``
    (the end-to-end metrics with ``--trace 0``, the per-layer metrics
    with ``--trace 1``).

The seed reaches the event, churn and fault-plan generators only; the
program under test is handed generated inputs, never a workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT = BENCH / "out"


def _load_spec() -> dict:
    with SPEC_PATH.open() as handle:
        return json.load(handle)


def _units(spec: dict, section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


def _environment() -> dict:
    import networkx
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "commit": commit or "unknown",
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
    }


# -- one workload, in this process -------------------------------------------


def run_one(args: argparse.Namespace, spec: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"bench: {ROOT / 'src' / 'repro'} is missing; the benchmark "
            "measures the program in this checkout and has nothing to run",
            file=sys.stderr,
        )
        return 2
    started = time.perf_counter()
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench.harness import run_workload
    from bench.workloads import NAMES, make

    if args.workload not in NAMES:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    trace = bool(args.trace)
    scratch = OUT / f"scratch-{os.getpid()}"
    workload = make(args.workload, args.smoke, args.corrupt_oracle, scratch)
    seconds = 0.0 if args.smoke else float(args.seconds)
    outcome = run_workload(workload, args.seed, seconds, trace)

    section = "per_layer" if trace else "end_to_end"
    units = _units(spec, section)
    measured = outcome.per_layer if trace else outcome.end_to_end
    if set(measured) != set(units):
        missing = sorted(set(units) - set(measured))
        extra = sorted(set(measured) - set(units))
        print(
            f"bench: metrics do not match BENCHMARK.json {section}: "
            f"missing {missing}, unlisted {extra}",
            file=sys.stderr,
        )
        return 2
    metrics = {
        name: {"value": float(measured[name]), "unit": units[name]}
        for name in units
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }

    OUT.mkdir(parents=True, exist_ok=True)
    stem = args.record or str(
        OUT / f"{args.workload}-seed{args.seed}-trace{int(trace)}-{os.getpid()}"
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": args.smoke,
        "import_s": import_s,
        "environment": _environment(),
        "details": outcome.details,
        **result,
    }
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if outcome.tracer is not None:
        outcome.tracer.save(stem + ".spans.npz")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, each in a subprocess ------------------------------------


def _child(
    workload: str, seed: int, trace: int, stem: str, args: argparse.Namespace
) -> Optional[dict]:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--record", stem,
    ]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def _reduce(results: List[dict]) -> Dict[str, dict]:
    """Median of each metric over the runs, with the runs kept."""
    out: Dict[str, dict] = {}
    for name, first in results[0]["metrics"].items():
        runs = [r["metrics"][name]["value"] for r in results]
        out[name] = {
            "value": statistics.median(runs),
            "unit": first["unit"],
            "runs": runs,
        }
    return out


def run_all(args: argparse.Namespace, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.only:
        if args.only not in names:
            print(f"bench: unknown workload {args.only!r}", file=sys.stderr)
            return 2
        names = [args.only]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = OUT / f"run-{stamp}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    combined: Dict[str, dict] = {}
    status = 0
    for name in names:
        sections: Dict[str, dict] = {}
        attempted = failed = 0
        for trace in (0, 1) if args.trace else (0,):
            results = []
            for run in range(args.runs):
                seed = args.seed + run
                stem = str(run_dir / f"{name}-seed{seed}-trace{trace}")
                result = _child(name, seed, trace, stem, args)
                if result is None:
                    print(f"{name}: no result (seed {seed}, trace {trace})")
                    status = 1
                    continue
                results.append(result)
                attempted += result["attempted"]
                failed += result["failed"]
            if results:
                key = "per_layer" if trace else "end_to_end"
                sections[key] = _reduce(results)
        share = failed / attempted if attempted else 1.0
        if failed or not sections:
            status = 1
        combined[name] = {
            "attempted": attempted,
            "failed": failed,
            "failed_ops_share": share,
            **sections,
        }
        print(
            f"\n== {name}  (seed {args.seed}, {args.runs} run(s); "
            f"attempted {attempted}, failed {failed}, "
            f"failed_ops_share {share:.6f})"
        )
        for key in ("end_to_end", "per_layer"):
            for metric, entry in sections.get(key, {}).items():
                bound = bounds.get(metric)
                note = f"  bound {bound:.0%}" if bound is not None else ""
                print(
                    f"  {metric:<40} {entry['value']:>16.6g} "
                    f"{entry['unit']}{note}"
                )
    record = {
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": combined,
    }
    path = run_dir / "record.json"
    with path.open("w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"\nrecord: {path.relative_to(ROOT)}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer pass")
    parser.add_argument("--only", help="restrict to one workload")
    parser.add_argument("--smoke", action="store_true",
                        help="counts / 20, one rep: development only")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="make every oracle expect a wrong answer "
                        "(the benchmark's own test uses this)")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = _load_spec()
    except (OSError, ValueError) as error:
        print(f"bench: cannot read {SPEC_PATH}: {error}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
