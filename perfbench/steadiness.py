#!/usr/bin/env python3
"""Steadiness report: median and spread of every end-to-end metric.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads agg_fanout,...] [--seconds N]

Runs perfbench/run.py once per seed on each workload (untraced), then prints
one Markdown row per workload x metric: the median, the first and third
quartiles as statistics.quantiles(values, n=4) gives them, the spread
(Q3 - Q1) / median, and the metric's bound from BENCHMARK.json. A spread
below a third of the bound is the target ("ok"); setup_s is exempt from the
spread rule but listed. The host record of each run (nproc, kernel backend,
steal) is summarized under the table. This report is the evidence the
bounds in BENCHMARK.json rest on.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    hosts = []
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().split("\n")
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stdout}{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            host = next((l for l in lines if l.startswith("# host:")), "")
            hosts.append(f"{workload} seed {seed}: {host[2:]}")
            print(f"{workload} seed {seed}: " +
                  ", ".join(f"{n}={result['metrics'][n]['value']:.6g}"
                            for n in bounds), file=sys.stderr, flush=True)
        for name, bound in bounds.items():
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            verdict = ("exempt" if name == "setup_s"
                       else "ok" if spread < bound / 3
                       else "within bound" if spread < bound else "TOO WIDE")
            rows.append(f"| {workload} | {name} | {statistics.median(vals):.6g} "
                        f"| {q1:.6g} | {q3:.6g} | {spread:.4f} | {bound} "
                        f"| {verdict} |")

    print(f"{args.runs} runs per workload, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {args.seconds:g} s each.\n")
    print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    print("\n".join(rows))
    print("\nHost record per run:\n")
    for host in hosts:
        print(f"- {host}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
