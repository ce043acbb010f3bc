"""Paired benchmark runs of two checkouts, written to one BENCH_*.json.

Run from anywhere, with two checkouts of the repository (for instance a
`git clone` of the parent commit and one of the change):

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --seed 9001 \\
        --out BENCH_13.json

For every workload and every pair k (k = 0 .. pairs-1) both checkouts run
`perfbench/run.py --workload W --seed SEED+k`, at run.py's own run length
and without tracing, with the same seed, one run at a time.  Pair k runs the parent first when k is even
and the change first when k is odd, so drift of the host over the pairs
does not favour either side.  The file keeps every run's result line (the
last line of its standard output) with the run's wall seconds, start to
exit, and, per workload and metric, the median of each side.  Its
`wall_s` block holds each side's total and median wall seconds per
workload, also printed when the recording ends: they show how long the
harness itself takes.  A run that prints no result line stops the
recording.  Standard library only; perfbench/ is only run, never changed.
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

WORKLOADS = ("drop", "inv", "jets", "principalize")
SIDES = ("parent", "change")


def commit_of(root: Path):
    """The checkout's HEAD commit, or None when it is not a git checkout."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(root: Path, workload: str, seed: int):
    """One perfbench run in `root`: its JSON result line and its wall
    seconds; exits when the run printed no result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=str(root), capture_output=True, text=True)
    wall_s = round(time.perf_counter() - t0, 3)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), wall_s
    except (IndexError, ValueError):
        sys.exit("%s seed %d in %s: exit %d, no result line: %s"
                 % (workload, seed, root, proc.returncode,
                    proc.stderr.strip()[-400:]))


def medians(runs: list) -> dict:
    """side -> metric -> median over that side's runs (perfbench reports
    each metric as {"value": v, "unit": u})."""
    values = {side: {} for side in SIDES}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            values[r["side"]].setdefault(name, []).append(m["value"])
    return {side: {name: statistics.median(v) for name, v in sorted(vals.items())}
            for side, vals in values.items()}


def wall_seconds(runs: list) -> dict:
    """side -> {"total", "median"} of that side's wall seconds."""
    out = {}
    for side in SIDES:
        walls = [r["wall_s"] for r in runs if r["side"] == side]
        out[side] = {"total": round(sum(walls), 3),
                     "median": round(statistics.median(walls), 3)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=9001,
                    help="seed of pair 0; pair k uses seed + k")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "command": "perfbench/run.py --workload W --seed SEED",
        "pairs": args.pairs,
        "seeds": [args.seed + k for k in range(args.pairs)],
        "commits": {s: commit_of(r) for s, r in roots.items()},
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = []
        for k in range(args.pairs):
            seed = args.seed + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                result, wall_s = run_once(roots[side], workload, seed)
                runs.append({"pair": k, "seed": seed, "side": side,
                             "result": result, "wall_s": wall_s})
                print("%s pair %d %s (%.1f s): %s"
                      % (workload, k, side, wall_s, json.dumps(result)[:160]),
                      file=sys.stderr, flush=True)
        doc["workloads"][workload] = {"medians": medians(runs), "runs": runs,
                                      "wall_s": wall_seconds(runs)}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    for workload, entry in doc["workloads"].items():
        print("%s wall s: %s" % (workload, "; ".join(
            "%s total %.1f, median %.1f" % (side, w["total"], w["median"])
            for side, w in entry["wall_s"].items())), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
