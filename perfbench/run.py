#!/usr/bin/env python3
"""Builds and runs the layered flix-cpp benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ifds_parallel --seed 2016 \
        --seconds 45 --trace 0

The first run configures and builds src/ plus the benchmark binary,
flix_perfbench, in Release mode under .bench_build/ (or
$CARGO_TARGET_DIR); later runs rebuild only what changed. The binary's
stdout passes through unchanged: its last line is the result object.
The metric names of a correct run are checked against BENCHMARK.json,
and any mismatch fails the run. A run that failed a check passes through
with the binary's exit code.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no flix-cpp sources next to perfbench/ (src/ is missing)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "flix_perfbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "flix_perfbench")


def src_digest():
    """SHA-256 over src/ (paths and contents): which sources were measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            p = os.path.join(d, name)
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def check_names(result, spec, traced):
    key = "per_layer" if traced else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metric names differ from BENCHMARK.json %s: missing %s, " \
               "extra %s, wrong units %s" % (key, missing, extra, units)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--fault", help="test seam, see src/main.cpp")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, names))
    exe = build()

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    if args.fault:
        cmd += ["--fault", args.fault]
    env = dict(os.environ, PERFBENCH_COMMIT=commit(),
               PERFBENCH_SRC_DIGEST=src_digest())
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    if not lines:
        fail("flix_perfbench printed nothing (exit %d)" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1][:200])
    if not isinstance(result, dict):
        fail("last line is not a JSON object: " + lines[-1][:200])
    if result.get("correct") is True:
        problem = check_names(result, spec, bool(args.trace))
        if problem:
            fail(problem)
    elif r.returncode == 0:
        fail("flix_perfbench reported a failed run but exited 0")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
