#!/usr/bin/env python3
"""Build and run the host-time benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the gsfl
library and the benchmark (Release) under .bench_build/ (or
$CARGO_TARGET_DIR); later calls rebuild incrementally. Every call runs the
arithmetic self-tests, then the benchmark, then checks its result line
against BENCHMARK.json: exactly the declared metrics for the mode
(end_to_end for --trace 0, per_layer for --trace 1), with the declared
units and finite values. A traced run also writes a Chrome trace-event file
and checks that it holds both the host and the simulated lane.

The last stdout line is the JSON result. The exit code is 0 only when the
build, the self-tests, every output check and the result line all pass.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_LIMIT_S = 170  # the benchmark itself; a run must end within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[section]}, spec


def check_targets(spec):
    """Every per-layer metric names the end-to-end metric it should move."""
    targets = json.loads((BENCH_DIR / "targets.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        t = targets.get(m["name"])
        if t is None:
            fail(f"targets.json has no entry for {m['name']}")
        if not set(t["moves"]) <= e2e | {"none"}:
            fail(f"targets.json: {m['name']} moves unknown metrics {t['moves']}")
        if not set(t["workloads"]) <= workloads:
            fail(f"targets.json: {m['name']} names unknown workloads")


def check_result(line, declared):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        fail("attempted/failed must be whole numbers, attempted >= 1")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name} is not a finite number: {value!r}")
        if m.get("unit") != declared[name]:
            fail(f"{name} unit {m.get('unit')!r}, declared {declared[name]!r}")
    return result


def check_trace(path):
    """A Chrome trace-event file Perfetto can load, with both lanes."""
    try:
        trace = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        fail(f"trace file {path}: {err}")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        fail("trace has no traceEvents list")
    lanes = {1: 0, 2: 0}
    for e in events:
        if e.get("ph") != "X":
            continue
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in e:
                fail(f"trace event without {key}: {e}")
        if e["dur"] < 0:
            fail(f"trace event with negative duration: {e}")
        lanes[e["pid"]] = lanes.get(e["pid"], 0) + 1
    if lanes[1] == 0 or lanes[2] == 0:
        fail(f"trace lacks a lane: host {lanes[1]} / simulated {lanes[2]} spans")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    build(out_dir)
    declared, spec = declared_metrics(args.trace == 1)
    check_targets(spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    selftest = subprocess.run([str(out_dir / "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=60)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("arithmetic self-tests failed")

    trace_file = out_dir / "traces" / f"{args.workload}-seed{args.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(out_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-file", str(trace_file)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_LIMIT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    print(f"# benchmark process {time.monotonic() - start:.1f} s", flush=True)
    result = check_result(lines[-1], declared)
    if args.trace == 1:
        check_trace(trace_file)
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        fail(f"output checks failed (exit {proc.returncode}, "
             f"{result['failed']} of {result['attempted']} failed)")


if __name__ == "__main__":
    main()
