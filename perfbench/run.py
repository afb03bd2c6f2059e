#!/usr/bin/env python3
"""Builds and runs the LOGRES end-to-end benchmark (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (and, through it, the
library under src/) into .bench_build/; later runs only re-check the
build. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Stores live under .bench_out/work
while a run lasts and are removed at its end; traced runs leave their
Chrome trace-event JSON in .bench_out/traces/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ["campus_updates", "lineage_queries"]
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configures (once) and builds the benchmark; returns the binary."""
    build_dir = os.path.join(root, BUILD_DIR)
    source_dir = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "logres_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(build_dir, "logres_perfbench")
    if not os.path.exists(binary):
        fail("build produced no " + binary)
    return binary


def git_sha(root):
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unavailable"


def source_digest(root):
    """SHA-256 over the library and benchmark sources, so a result names
    the code it measured even where no git metadata exists."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the root of a LOGRES checkout (src/ not found)")
    binary = build(root)

    work_dir = os.path.join(root, OUT_DIR, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    trace_dir = os.path.join(root, OUT_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--git-sha", git_sha(root),
               "--src-digest", source_digest(root)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
        code = done.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
