#!/usr/bin/env python3
"""Smoke test for the benchmark itself (not for the program).

Run from the root of a checkout::

    python3 perfbench/smoke.py

It runs a tiny size of every workload, untraced and traced, and checks
that each run succeeds and prints every metric BENCHMARK.json names,
with its unit.  Then it injects one output mismatch -- a replay DELIVER
that no longer equals the recording -- and checks that the run counts a
failed room, reports ``correct: false`` and exits non-zero.  Takes
about a minute and a half on two cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload: str, trace: int, *extra: str):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            code, result, stderr = bench(workload, trace)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{label}: exit {code}\n{stderr[-2000:]}")
                continue
            if result["attempted"] < 1 or result["failed"]:
                problems.append(f"{label}: attempted {result['attempted']}"
                                f" failed {result['failed']}")
            got = result["metrics"]
            for metric in wanted:
                entry = got.get(metric["name"])
                if entry is None:
                    problems.append(f"{label}: no {metric['name']}")
                elif entry["unit"] != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} in "
                                    f"{entry['unit']}, not {metric['unit']}")
            extra = set(got) - {metric["name"] for metric in wanted}
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
            print(f"ok   {label}: {result['attempted']} rooms", flush=True)

    code, result, _ = bench("relay-replay", 0, "--inject", "corrupt-replay")
    if code == 0 or result is None or result["correct"] \
            or result["failed"] < 1:
        problems.append(f"injected mismatch not caught: exit {code}, "
                        f"result {result}")
    else:
        print(f"ok   injected mismatch: exit {code}, "
              f"{result['failed']} failed room(s)")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
