#!/usr/bin/env python3
"""Compare two records written by ``bench/run.py``: ``compare.py A B``.

``A`` is the base (the parent commit, or the first of two sets of runs
of one commit), ``B`` the candidate.  One row per workload and metric,
the ratio always given with its base.  An end-to-end metric *regresses*
when ``B`` is worse than ``A`` by more than the bound ``BENCHMARK.json``
fixes for it; per-layer metrics have no bound and are shown for
reading.  Metrics that are counts of work (``spatial.*_per_query``,
``replication.ops_shipped``, ...) repeat exactly for a seed, so any
difference at all is flagged ``DIFFERS``.

Exit status 1 on any regression; with ``--exact`` (two sets of runs of
the same commit) also when an exact-count metric differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.layers import EXACT_METRICS  # noqa: E402


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def compare(base: dict, candidate: dict, spec: dict, exact: bool) -> int:
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    regressions = differences = 0
    print(
        f"{'workload':<22}{'metric':<38}{'A (base)':>14}{'B':>14}"
        f"{'B/A':>9}  verdict"
    )
    for workload in base["workloads"]:
        if workload not in candidate["workloads"]:
            print(f"{workload:<22}(absent from B)")
            continue
        for section in ("end_to_end", "per_layer"):
            left = base["workloads"][workload].get(section, {})
            right = candidate["workloads"][workload].get(section, {})
            for metric, entry in left.items():
                if metric not in right:
                    continue
                a, b = entry["value"], right[metric]["value"]
                if a == 0 and b == 0:
                    continue  # layer not exercised by this workload
                ratio = f"{b / a:9.3f}" if a else "      n/a"
                verdict = ""
                rule = bounded.get(metric)
                if rule is not None:
                    bound = rule["bound"]
                    if rule["better"] == "higher":
                        worse = b < a * (1.0 - bound)
                    else:
                        worse = b > a * (1.0 + bound)
                    verdict = (
                        f"REGRESSION (bound {bound:.0%})"
                        if worse
                        else f"within {bound:.0%}"
                    )
                    regressions += worse
                elif metric in EXACT_METRICS and a != b:
                    verdict = "DIFFERS (exact count)"
                    differences += 1
                print(
                    f"{workload:<22}{metric:<38}{a:>14.6g}{b:>14.6g}"
                    f"{ratio}  {verdict} [{entry['unit']}]"
                )
    print(
        f"\n{regressions} regression(s), {differences} exact-count "
        "metric(s) differ"
    )
    return 1 if regressions or (exact and differences) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="record.json of the base (A)")
    parser.add_argument("candidate", help="record.json to judge (B)")
    parser.add_argument(
        "--exact",
        action="store_true",
        help="same commit on both sides: differing counts fail too",
    )
    args = parser.parse_args(argv)
    spec = _load(str(ROOT / "BENCHMARK.json"))
    return compare(
        _load(args.base), _load(args.candidate), spec, args.exact
    )


if __name__ == "__main__":
    sys.exit(main())
