#!/usr/bin/env python3
"""Builds and runs the real-clock site benchmark.

    python3 perfbench/run.py --workload drain|stream|history --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark and the program's sources
under src/ are built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first run builds, later runs rebuild only what
changed. Every run first runs the checker self-test.

A run is several rounds, each in a fresh process that deploys, sets up,
measures and tears down its own site: stream and history run three rounds
of S/3 timed seconds; drain repeats its fixed backlog until the drains add
up to S seconds (at least three rounds). A traced run is one untraced and
one traced round. The rounds are then aggregated: standard output ends with
a report line (provenance and every metric) and the result line. Build and
round output goes to standard error. Exits non-zero, without a result, when
the build, the self-test or a round fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170  # every round and the aggregate, after the build
ROUNDS = 3
MAX_DRAIN_ROUNDS = 30
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class RunError(Exception):
    pass


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def step(cmd, timeout):
    """Runs a command with its output on standard error."""
    if timeout <= 0:
        raise RunError("out of time")
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout)


def build(bdir):
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", bdir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", bdir, "-j", jobs], BUILD_TIMEOUT_S)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def run_rounds(binary, args, work, deadline):
    """Runs the rounds of one benchmark run; returns their files in order."""
    timed = args.seconds / ROUNDS
    files = []

    def one(trace):
        path = os.path.join(work, f"round-{len(files)}.json")
        cmd = [binary, "round", "--workload", args.workload,
               "--seed", str(args.seed), "--timed-seconds", f"{timed:.6f}",
               "--trace", str(trace), "--out", path]
        if trace:
            cmd += ["--spans-out", os.path.join(
                os.path.dirname(work),
                f"spans-{args.workload}-{args.seed}.jsonl")]
        started = time.monotonic()
        step(cmd, deadline - time.monotonic())
        files.append(path)
        return time.monotonic() - started

    if args.trace:
        one(0)
        one(1)
        return files
    if args.workload != "drain":
        for _ in range(ROUNDS):
            one(0)
        return files
    drained = 0.0
    while True:
        took = one(0)
        with open(files[-1]) as f:
            r = json.load(f)
        drained += r["timed_events"] / r["events_per_s"]
        if len(files) >= MAX_DRAIN_ROUNDS:
            break
        if len(files) >= ROUNDS and (
                drained >= args.seconds
                or deadline - time.monotonic() < 3 * took):
            break
    return files


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["drain", "stream", "history"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    bdir = build_dir()
    try:
        build(bdir)
        step([os.path.join(bdir, "selftest")], 60)
    except (OSError, RunError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if args.selftest:
        return 0

    binary = os.path.join(bdir, "site_bench")
    work = os.path.join(bdir, f"rounds-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        files = run_rounds(binary, args, work, deadline)
        out = subprocess.run(
            [binary, "aggregate", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--commit", commit(),
             "--source-digest", source_digest()] + files,
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=True)
    except (OSError, RunError, ValueError, KeyError,
            subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [line for line in out.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
