#!/usr/bin/env python3
"""Build and run the HyperFile end-to-end query benchmark.

    python3 e2ebench/run.py --workload chain --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --quick

Run from the root of a checkout. The first call configures and builds the
program's libraries and the benchmark (RelWithDebInfo) under .bench_build/;
later calls rebuild only what changed. The benchmark's own output passes
through, and its last line is the JSON result. --quick runs every workload
briefly, traced and untraced, and fails unless every check passes.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("chain", "tcp_fanout", "distset_wal")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no HyperFile sources under %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "e2ebench")


def run(binary, workload, seed, seconds, trace):
    """Run one measurement; returns (exit code, parsed last line or None)."""
    workdir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def quick(binary):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run(binary, workload, 1, 2, trace)
            good = (code == 0 and result is not None and result["correct"]
                    and result["failed"] == 0)
            print("quick %-12s trace=%d: %s" %
                  (workload, trace, "ok" if good else "FAILED"),
                  file=sys.stderr)
            ok = ok and good
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args()
    if not args.quick and args.workload is None:
        p.error("--workload is required (or --quick)")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("e2ebench: build failed: %s" % e)
    if args.quick:
        return quick(binary)
    code, result = run(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    if code == 0 and result is None:
        print("e2ebench: no result line", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
