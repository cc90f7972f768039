#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of perfbench/run.py at toy size, untraced and traced,
and checks that each run ends with a correct result naming every metric of
BENCHMARK.json with its unit.  Also checks that the benchmark fails cleanly
in a directory holding only itself.  Run from the repository root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_run(workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted"):
        problems.append(f"{where}: not a clean run: {lines[-1][:200]}")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r}, "
                            f"BENCHMARK.json says {m['unit']!r}")
        if not isinstance(got.get("value"), (int, float)) \
                or not math.isfinite(got["value"]):
            problems.append(f"{where}: {m['name']} value {got.get('value')!r}")
        if not any(line.startswith(f"metric {m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines):
            problems.append(f"{where}: no printed line for {m['name']}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's source the benchmark must fail, printing no result."""
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout "
                f"{proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = check_bare_directory()
    gated = [wl["name"] for wl in SPEC["workloads"]]
    problems += [f"BENCHMARK.json names unknown workload {w}"
                 for w in gated if w not in WORKLOAD_NAMES]
    # Every workload the command accepts, including any not gated in
    # BENCHMARK.json, must print every metric.
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            found = check_run(name, trace)
            print(f"{name} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke test " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
