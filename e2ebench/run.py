#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload tpch-serial --seed 7 --seconds 20 --trace 0

The build goes to <work>/e2ebench, where <work> is $CARGO_TARGET_DIR
(default .bench_build) under the repository root; the benchmark binary's
spill files and trace exports go to <work>. Build chatter goes to
stderr; the last stdout line is the benchmark's JSON result. The metric
names printed are checked against BENCHMARK.json, so the two cannot
drift apart.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "swift_e2ebench",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec[key]}


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Swift sources next to e2ebench/; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    work_dir = os.path.abspath(os.path.join(ROOT, target))
    build_dir = os.path.join(work_dir, "e2ebench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "swift_e2ebench"), *args,
           "--work-dir", work_dir, "--git-sha", git_sha()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)

    result = json.loads(lines[-1])
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    want = expected_metrics(trace)
    got = set(result["metrics"])
    if got != want:
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))


if __name__ == "__main__":
    main()
