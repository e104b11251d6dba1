#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the repository root. It configures and builds the
perfbench CMake package (perfbench/CMakeLists.txt, which compiles the
library sources from src/) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload.
Build output goes to stderr. The workload's checks and fingerprints go
to stdout, and the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1
(a layer the workload does not exercise reports an explicit 0). The
exit code is nonzero when the build fails, a correctness check fails,
or the output does not match BENCHMARK.json. --self-test builds and
runs the benchmark's own tests instead.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
WORKLOADS = ("explore_cold", "chip_warm", "serve_mix")
# The benchmark promises to finish within 180 s; leave room to report.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "-S", PACKAGE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", target, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(BUILD, target)


def metric_spec(per_layer):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if per_layer else "end_to_end"]}


def conform(result, per_layer):
    """Check that the metrics are exactly those of BENCHMARK.json, with
    its units, and order them as it lists them. A workload reports a
    layer it does not exercise as an explicit 0, so a missing name is
    an error, not a 0."""
    spec = metric_spec(per_layer)
    metrics = result["metrics"]
    for name, m in metrics.items():
        if spec.get(name) != m["unit"]:
            fail(f"metric {name} ({m['unit']}) is not in BENCHMARK.json "
                 "with that unit", 3)
    missing = [name for name in spec if name not in metrics]
    if missing:
        fail(f"metrics not reported: {', '.join(missing)}", 3)
    result["metrics"] = {name: metrics[name] for name in spec}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(BUILD, "work")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} printed no result (exit {run.returncode})", 4)
    print("\n".join(lines[:-1]))
    print(json.dumps(conform(result, args.trace == 1)))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
