"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json, and param_scan, untraced and traced
at the tiny scale and checks that each metric it lists is printed by name
with its unit, both in the text lines and in the final JSON line, and that
a clean run is correct. Then it corrupts one output per workload kind (a
wrong p_star from the CLI, a wrong p_star from the library) and checks that
ops_failed counts exactly that one operation and that the run is no longer
correct.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(*extra: str) -> tuple:
    argv = [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "1", "--scale", "tiny", *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=175)
    expect(proc.returncode == 0, f"{' '.join(extra)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_printed(label: str, lines: list, doc: dict, expected: list) -> None:
    expect(set(doc) == RESULT_KEYS, f"{label}: result keys {sorted(doc)}")
    expect(set(doc["metrics"]) == {m["name"] for m in expected}, f"{label}: metric names differ")
    printed = {line.split()[0]: line.split()[1:] for line in lines if line and not line.startswith("#")}
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        value = doc["metrics"][name]
        expect(value["unit"] == unit, f"{label}: {name} has unit {value['unit']!r}, not {unit!r}")
        expect(isinstance(value["value"], (int, float)) and math.isfinite(value["value"]),
               f"{label}: {name} = {value['value']!r}")
        expect(name in printed and printed[name][1] == unit, f"{label}: {name} not printed with {unit}")
    expect("ops" in printed and "ops_failed" in printed, f"{label}: ops and ops_failed not printed")
    expect(int(printed["ops_failed"][0]) == doc["failed"], f"{label}: printed ops_failed differs")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    clean = {}
    # param_scan is not in BENCHMARK.json but is runnable by hand, so it is tested too
    for workload in [w["name"] for w in spec["workloads"]] + ["param_scan"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace {trace}"
            lines, doc = bench("--workload", workload, "--trace", str(trace))
            check_printed(label, lines, doc, spec[kind])
            expect(doc["correct"], f"{label}: a clean run is not correct")
            expect(doc["attempted"] >= 1, f"{label}: nothing attempted")
            clean[workload, trace] = doc
            print(f"ok  {label}: {doc['attempted']} ops, {doc['failed']} failed")

    for workload, op in (("cli_session", "cli.steady ref1"), ("param_scan", "steady.equilibrium+classify #0")):
        _, doc = bench("--workload", workload, "--trace", "0", "--corrupt", op)
        base = clean[workload, 0]
        expect(doc["failed"] == base["failed"] + 1, f"corrupted {op!r}: failed {doc['failed']}, clean {base['failed']}")
        expect(not doc["correct"], f"corrupted {op!r}: run still reads correct")
        print(f"ok  corrupted {op!r} is counted in ops_failed")
    print("selftest passed")


if __name__ == "__main__":
    main()
