#!/usr/bin/env python3
"""Toy-size self-check of the benchmark (not part of the test suite).

Runs every workload at tiny sizes (oracle 1e5, 2 replications, 4 offset
draws), untraced and traced, and asserts that each run succeeds, emits
exactly the BENCHMARK.json metrics with their units, traces every layer
function, and reads a nonzero value for each per-layer metric on the
workloads that layer_map.json says exercise it.

    python3 bench/selfcheck.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Zero is the expected reading for these.
MAY_BE_ZERO = {"margins.violations", "trace.overhead_s"}


def run(workload: str, trace: int):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, stderr = run(workload, trace)
            where = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} operations failed")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(emitted) ^ set(expected))}")
            if "missing layer functions" in stderr:
                problems.append(f"{where}: {stderr.split('missing layer functions')[1].splitlines()[0]}")
            for name, metric in result["metrics"].items():
                exercised = trace == 0 or (workload in layer_map[name]["on"] and name not in MAY_BE_ZERO)
                if exercised and not metric["value"] > 0:
                    problems.append(f"{where}: {name} = {metric['value']}")
            print(f"{where}: checked {len(emitted)} metrics", flush=True)
    for line in problems:
        print(f"FAIL {line}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
