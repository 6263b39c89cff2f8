#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

    python3 perfbench/run.py --workload mixed_runs --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a Stardust checkout. The first call configures and
compiles perfbench/ (which compiles src/ with it) into .bench_build/perfbench;
later calls only rebuild what changed. The driver's output is passed through:
"# " lines describe the run, the last line is the JSON result. This script
checks that the result names exactly the metrics BENCHMARK.json declares for
the mode (end_to_end without tracing, per_layer with it) and exits non-zero
when the build fails, the driver fails a correctness gate, or the result is
malformed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD.parent / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(max(1, min(3, os.cpu_count() or 1)))
        done = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                              stdout=sys.stderr, stderr=sys.stderr, env=env)
        return done.returncode == 0 and DRIVER.exists()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error string, or None when the result line is well formed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as err:
        return f"last line is not JSON: {err}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected keys {sorted(result)}"
    if result["correct"] is not True:
        return "a correctness gate failed"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    if not isinstance(result["failed"], int) or result["failed"] != 0:
        return f"failed = {result['failed']}"
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metric set differs: missing {missing}, extra {extra}"
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            return f"{name}: unit {got[name].get('unit')!r}, expected {unit!r}"
        if not isinstance(got[name].get("value"), (int, float)):
            return f"{name}: value is not a number"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        log("build failed")
        return 3

    if args.self_test:
        return subprocess.run([str(DRIVER), "--self-test"]).returncode

    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.unlink(missing_ok=True)
        cmd += ["--trace-path", str(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 4
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    error = check_result(lines[-1], bool(args.trace)) if lines[-1] else "no output"
    if proc.returncode != 0 or error:
        print(lines[-1])
        log(error or f"driver exited with {proc.returncode}")
        return proc.returncode or 5
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
