#!/usr/bin/env python3
"""A/B comparison of two commits on the end-to-end benchmark (e2ebench).

Extracts each ref with `git archive` into the ignored
.bench_build/ab/<sha>/, builds and runs it with that tree's own
e2ebench/run.py, and alternates which side runs first in each pair. Every
run must be `correct` with no failed request. Then it prints, for every
metric: each side's median and quartiles, the relative change of the
medians, the pairs the change won (ties count for neither side) and a
verdict:
  gain        the change won at least 9 of 10 pairs and its median beats
              the base's by more than the base's interquartile range;
  worse       the change's median is worse than the base's by more than the
              metric's bound in the base tree's BENCHMARK.json;
  unresolved  the base's own interquartile range is wider than that bound,
              and not every change run beats every base run;
  within      none of these.

Usage:
    ab_e2e.py --base REF --change REF --workload W [--pairs N]
              [--seconds S] [--seed K] [--trace 0|1] [--json PATH]
    ab_e2e.py --self-test

Exit codes: 0 done, 1 a run failed (or a self-test check failed), 2 bad
arguments or an unusable ref.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def extract(ref: str) -> str:
    """The tree of `ref`, extracted once under AB_DIR; returns its path."""
    sha = git("rev-parse", "--verify", ref + "^{commit}")
    tree = os.path.join(AB_DIR, sha)
    marker = os.path.join(tree, ".ab_extracted")
    if not os.path.isfile(marker):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise subprocess.CalledProcessError(archive.returncode, "git archive")
        open(marker, "w").close()
    return tree


def pair_order(i: int) -> tuple[str, str]:
    """Which side runs first in pair i: the base in even pairs."""
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def run_once(tree: str, args: argparse.Namespace) -> dict:
    """One benchmark run of `tree`; its result line, or SystemExit."""
    cmd = [sys.executable, os.path.join(tree, "e2ebench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    problem = check_run(proc.returncode, result)
    if problem:
        sys.stdout.write(proc.stdout)
        sys.exit("ab_e2e: %s: %s" % (os.path.basename(tree)[:12], problem))
    return result


def check_run(code: int, result: dict | None) -> str | None:
    """Why a run does not count, or None when it is correct and complete."""
    if code != 0:
        return "exit code %d" % code
    if result is None or "metrics" not in result:
        return "no result line"
    if not result.get("correct"):
        return "run not correct"
    if result.get("failed", 1) != 0:
        return "%s failed requests" % result.get("failed")
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(base: list[float], change: list[float], lower_better: bool) -> int:
    """Pairs in which the change beat the base; ties count for neither."""
    return sum(1 for b, c in zip(base, change)
               if (c < b if lower_better else c > b))


def verdict(base: list[float], change: list[float], lower_better: bool,
            bound: float | None) -> str:
    q1, med_b, q3 = quartiles(base)
    med_c = quartiles(change)[1]
    gap = (med_b - med_c) if lower_better else (med_c - med_b)
    if (wins(base, change, lower_better) >= math.ceil(0.9 * len(base))
            and gap > q3 - q1):
        return "gain"
    if bound is None or med_b == 0:
        return "within"
    if -gap > bound * abs(med_b):
        return "worse"
    every_better = (max(change) < min(base) if lower_better
                    else min(change) > max(base))
    if q3 - q1 > bound * abs(med_b) and not every_better:
        return "unresolved"
    return "within"


def metric_specs(tree: str) -> dict[str, dict]:
    """name -> {"better", "bound"} from the tree's BENCHMARK.json, if any."""
    try:
        with open(os.path.join(tree, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for key in ("end_to_end", "per_layer")
            for m in bench.get(key, [])}


def summarize(base_runs: list[dict], change_runs: list[dict],
              specs: dict[str, dict]) -> list[dict]:
    rows = []
    for name, first in base_runs[0]["metrics"].items():
        if not all(name in r["metrics"] for r in base_runs + change_runs):
            continue
        base = [r["metrics"][name]["value"] for r in base_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        spec = specs.get(name, {})
        lower = spec.get("better", "lower") == "lower"
        qb, qc = quartiles(base), quartiles(change)
        rows.append({
            "metric": name, "unit": first.get("unit", ""),
            "lower_is_better": lower, "base": qb, "change": qc,
            "relative": (qc[1] - qb[1]) / qb[1] if qb[1] else 0.0,
            "wins": wins(base, change, lower), "pairs": len(base),
            "verdict": verdict(base, change, lower, spec.get("bound")),
        })
    return rows


def print_table(rows: list[dict]) -> None:
    def fmt(q):
        return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
    print("%-29s %-30s %-30s %9s %6s  %s" %
          ("metric", "base median [q1, q3]", "change median [q1, q3]",
           "change", "wins", "verdict"))
    for r in rows:
        print("%-29s %-30s %-30s %+8.1f%% %6s  %s" %
              (r["metric"], fmt(r["base"]), fmt(r["change"]),
               100 * r["relative"], "%d/%d" % (r["wins"], r["pairs"]),
               r["verdict"]))


def self_test() -> int:
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append("%s: got %r, want %r" % (what, got, want))

    expect("pair 0 order", pair_order(0), ("base", "change"))
    expect("pair 1 order", pair_order(1), ("change", "base"))
    expect("quartiles of 1..5", quartiles([5, 1, 4, 2, 3]), (2.0, 3.0, 4.0))
    expect("quartiles of one run", quartiles([7.0]), (7.0, 7.0, 7.0))
    expect("quartiles of 1..10", quartiles(list(range(1, 11))),
           (3.25, 5.5, 7.75))
    base = [10, 11, 10, 12, 10, 11, 10, 12, 11, 10]
    change = [8, 9, 10, 9, 8, 9, 8, 9, 8, 8]  # pair 3 ties
    expect("wins, lower better, tie excluded", wins(base, change, True), 9)
    expect("wins, higher better", wins(base, change, False), 0)
    expect("9 of 10 and a gap over the IQR", verdict(base, change, True, 0.25),
           "gain")
    expect("8 of 10 is no gain",
           verdict(base, change[:2] + [10, 12] + change[4:], True, 0.25),
           "within")
    expect("a gap inside the IQR is no gain",
           verdict([10, 14, 10, 14, 10, 14, 10, 14, 10, 14],
                   [9.9, 13.9] * 5, True, 0.5), "within")
    expect("worse beyond the bound",
           verdict([10.0] * 10, [13.0] * 10, True, 0.25), "worse")
    expect("higher-is-better worse beyond the bound",
           verdict([10.0] * 10, [7.0] * 10, False, 0.25), "worse")
    expect("spread wider than the bound",
           verdict([5, 15, 5, 15, 5, 15, 5, 15, 5, 15],
                   [10.5] * 10, True, 0.25), "unresolved")
    expect("spread wider, but every change run better (gap under the IQR)",
           verdict([5, 15, 5, 15, 5, 15, 5, 15, 5, 15],
                   [4.0] * 10, True, 0.25), "within")
    run = {"correct": True, "failed": 0, "metrics": {}}
    expect("a good run counts", check_run(0, run), None)
    expect("an incorrect run fails", check_run(0, dict(run, correct=False)),
           "run not correct")
    expect("failed requests fail", check_run(0, dict(run, failed=2)),
           "2 failed requests")
    expect("a crash fails", check_run(1, run), "exit code 1")
    expect("no result line fails", check_run(0, None), "no result line")
    runs = [{"metrics": {"m": {"value": v, "unit": "ms"}}} for v in base]
    rows = summarize(runs, [{"metrics": {"m": {"value": v, "unit": "ms"}}}
                            for v in change], {})
    expect("summary wins", rows[0]["wins"], 9)
    expect("summary relative change", round(rows[0]["relative"], 4),
           round((8.5 - 10.5) / 10.5, 4))
    for f in failures:
        print("self-test FAILED: " + f, file=sys.stderr)
    print("self-test: %d checks failed" % len(failures), file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base")
    p.add_argument("--change")
    p.add_argument("--workload")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="write every run and the summary here")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if not (args.base and args.change and args.workload) or args.pairs < 1:
        p.error("--base, --change, --workload and --pairs >= 1 are required")
    try:
        trees = {"base": extract(args.base), "change": extract(args.change)}
    except subprocess.CalledProcessError as e:
        print("ab_e2e: %s" % e, file=sys.stderr)
        return 2
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        for side in pair_order(i):
            runs[side].append(run_once(trees[side], args))
            print("ab_e2e: pair %d/%d %s done" % (i + 1, args.pairs, side),
                  file=sys.stderr)
    rows = summarize(runs["base"], runs["change"],
                     metric_specs(trees["base"]))
    print("ab_e2e: %s, seed %d, %d s runs, %d pairs; base %s, change %s" %
          (args.workload, args.seed, args.seconds, args.pairs,
           os.path.basename(trees["base"])[:12],
           os.path.basename(trees["change"])[:12]))
    print_table(rows)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "runs": runs,
                       "summary": rows}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
