"""Paired benchmark runs of two checkouts, parent and change.

Usage:

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload oracle_twisted --pairs 10 --seed-base 100

Pair i runs the benchmark command of BENCHMARK.json (``perfbench/run.py``)
once in each checkout, each with its own files, on seed ``seed-base + i``
for the ``run_seconds`` of BENCHMARK.json and with ``--trace 0``; the parent
runs first in even pairs and the change first in odd ones.  It prints each
run's end-to-end metrics and wall time as it ends, then, per metric, each
side's median and quartiles and the number of pairs in which the change
reads better.  It exits 1 if a run fails or reports ``"correct": false``.
Both checkouts are used as they are; no git command is run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")


def benchmark_spec(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(checkout: str, spec: dict, workload: str, seed: int) -> tuple[dict, float]:
    """One benchmark run in ``checkout``: its summary (the last line of its
    output) and its wall time.  Raises RuntimeError if the run fails."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr.strip()}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    if not summary["correct"]:
        raise RuntimeError(f"{checkout}: seed {seed} reports incorrect outputs: {summary}")
    return summary, wall


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args()

    checkouts = {"parent": args.parent, "change": args.change}
    specs = {side: benchmark_spec(checkouts[side]) for side in SIDES}
    metrics = {m["name"]: m for m in specs["parent"]["end_to_end"]}
    values = {side: {name: [] for name in metrics} for side in SIDES}
    walls = {side: [] for side in SIDES}

    print("pair seed side   first " + " ".join(f"{name:>12s}" for name in metrics)
          + "       wall_s", flush=True)
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            try:
                summary, wall = run_once(checkouts[side], specs[side], args.workload, seed)
            except RuntimeError as exc:
                print(f"bench_pairs: {exc}", file=sys.stderr)
                return 1
            walls[side].append(wall)
            row = []
            for name in metrics:
                value = summary["metrics"][name]["value"]
                values[side][name].append(value)
                row.append(f"{value:12.6g}")
            print(f"{i:4d} {seed:4d} {side:6s} {'yes' if side == order[0] else 'no':5s} "
                  f"{' '.join(row)} {wall:12.1f}", flush=True)

    print()
    print(f"{'metric':12s} {'side':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}  change better")
    for name, m in metrics.items():
        sign = 1.0 if m["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0
                   for p, c in zip(values["parent"][name], values["change"][name]))
        for side in SIDES:
            q1, q3 = quartiles(values[side][name])
            tail = f"  {wins} of {args.pairs} pairs" if side == "change" else ""
            print(f"{name:12s} {side:6s} {statistics.median(values[side][name]):12.6g} "
                  f"{q1:12.6g} {q3:12.6g}{tail}")
    for side in SIDES:
        q1, q3 = quartiles(walls[side])
        print(f"{'wall_s':12s} {side:6s} {statistics.median(walls[side]):12.1f} "
              f"{q1:12.1f} {q3:12.1f}  (max {max(walls[side]):.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
