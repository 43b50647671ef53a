#!/usr/bin/env python3
"""CI perf smoke for the parallel site drain (DESIGN.md §14).

Reads a BENCH_parallel_site.json produced by bench/bench_parallel_site
--heavy and fails if the in-process drain_workers=4 row is missing or its
mean is over CEILING_MS, or if any row's result count differs from the
workers=0 (serial drain) row of its transport: a parallel drain that
answers differently from the serial one is wrong, however fast.

Usage:
    check_bench_speedup.py BENCH_parallel_site.json
    check_bench_speedup.py --self-test

Exit codes: 0 pass, 1 gate failed (or self-test failure), 2 unreadable input.
"""

from __future__ import annotations

import json
import sys

# Mean wall time (ms) the gated row may not exceed. The retired gate asked
# for 2x over the in-process serial drain of the pre-rebuild engine, run in
# the same binary. On a 4-vCPU host that drain never measured below
# 117.7 ms (five --heavy runs: 117.7-256.0 ms), so the retired gate never
# admitted a mean over 58.9 ms there. This ceiling is lower still.
CEILING_MS = 58.0
GATED = "inproc,workers=4"


def check(data: dict) -> list[str]:
    """Every gate failure in a parsed BENCH_parallel_site.json."""
    rows = {str(r.get("config")): r for r in data.get("records", [])}
    failures = []
    mean = rows.get(GATED, {}).get("mean")
    if mean is None:
        failures.append(f"no mean for '{GATED}' (have: {sorted(rows)})")
    elif mean > CEILING_MS:
        failures.append(f"{GATED}: mean {mean} ms is over the {CEILING_MS} "
                        "ms ceiling")
    for config, row in rows.items():
        serial_config = config.split(",workers=")[0] + ",workers=0"
        serial = rows.get(serial_config, {}).get("counters", {})
        got = row.get("counters", {}).get("results")
        if got is None or got != serial.get("results"):
            failures.append(f"{config}: results={got}, but '{serial_config}'"
                            f" has {serial.get('results')}")
    return failures


def self_test() -> int:
    def run(edits: dict) -> list[str]:
        """check() on a passing file with rows replaced (None: removed)."""
        rows = {f"{t},workers={w}": (6.0, 104) for t in ("inproc", "tcp")
                for w in (0, 1, 2, 4, 8)}
        rows.update(edits)
        return check({"records": [
            {"config": c, "mean": v[0], "counters": {"results": v[1]}}
            for c, v in rows.items() if v is not None]})

    cases = [  # (name, edits, should fail)
        ("passing run", {}, False),
        ("gated row at the ceiling", {GATED: (CEILING_MS, 104)}, False),
        ("gated row over the ceiling", {GATED: (CEILING_MS + .01, 104)}, True),
        ("gated row missing", {GATED: None}, True),
        ("parallel row disagrees", {"tcp,workers=2": (6.0, 103)}, True),
        ("serial row disagrees", {"inproc,workers=0": (6.0, 0)}, True),
        ("serial row missing", {"tcp,workers=0": None}, True),
    ]
    bad = [name for name, edits, fail in cases if bool(run(edits)) != fail]
    for name in bad:
        print(f"self-test FAIL: {name}")
    print(f"bench speedup gate self-test: {len(cases) - len(bad)} of "
          f"{len(cases)} cases pass")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[0], encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {argv[0]}: {e}", file=sys.stderr)
        return 2
    gated = next((r for r in data.get("records", [])
                  if r.get("config") == GATED), {})
    print(f"{GATED}: mean={gated.get('mean')} ms (ceiling {CEILING_MS} ms, "
          f"hardware_threads={gated.get('counters', {}).get('hardware_threads')})")
    failures = check(data)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
