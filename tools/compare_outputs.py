#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees byte for byte.

Usage: python3 tools/compare_outputs.py PARENT [CHANGE]

Runs the six subcommands (steady, simulate, reconstruct, sweep, validate,
report, in that order, into one output directory) on configs/ref1.json,
configs/ref2.json and configs/linear_growth.json, and again on ref1 and
ref2 from two exponential starts off their equilibrium: (1.65, 1.5), a bump
of the stationary (1.5, 1.5), and (0.3, 0.8), well below it. ref1 and
ref2 themselves start at rest, so only the moving starts show a change to the stepper,
dense output, reconstruction or oracle. ``simulate`` also runs on the
bumped ref1 with the fixed-step RK4 integrator (h = 0.01). Every case runs
once with each tree's ``src`` on PYTHONPATH. CHANGE defaults to the tree
holding this script.
Each run works in a fresh temporary directory with relative paths, so
nothing in the outputs names the tree. The exit code, stdout and stderr
of every subcommand and every output file are compared; ``timings`` is
dropped from manifest.json and run_summary.json first. Prints SAME or
DIFF per item and exits 1 on any DIFF.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("steady", "simulate", "reconstruct", "sweep", "validate", "report")
BUMPED = {"initial_density": {"coefficient": 1.65, "decay": 1.5}}
LOW = {"initial_density": {"coefficient": 0.3, "decay": 0.8}}
#: case name -> (config, the settings it overrides by section, subcommands run)
CASES = {
    **{config: (config, {}, COMMANDS) for config in ("ref1", "ref2", "linear_growth")},
    **{f"{config}_{name}": (config, start, COMMANDS)
       for config in ("ref1", "ref2") for name, start in (("bumped", BUMPED), ("low", LOW))},
    "ref1_rk4": ("ref1", {**BUMPED, "integrator": {"method": "rk4", "h": 0.01}}, ("simulate",)),
}
TIMED = ("manifest.json", "run_summary.json")


def _run_tree(tree: Path, case: str, workdir: Path) -> dict:
    """Every compared item of one case in one tree, by name."""
    config, overrides, commands = CASES[case]
    doc = json.loads((tree / "configs" / f"{config}.json").read_text(encoding="utf-8"))
    for section, settings in overrides.items():
        doc[section].update(settings)
    (workdir / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("AGESTRUCT_OUTDIR", None)
    items = {}
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "agestruct", command, "--config", "run.json", "--out", "out"],
            cwd=workdir, env=env, capture_output=True, timeout=600,
        )
        items[f"{command} exit"] = str(proc.returncode).encode()
        items[f"{command} stdout"] = proc.stdout
        items[f"{command} stderr"] = proc.stderr
    out = workdir / "out"
    for path in sorted(out.rglob("*")) if out.exists() else ():
        if path.is_file():
            data = path.read_bytes()
            if path.name in TIMED:
                doc = json.loads(data)
                doc.pop("timings", None)
                data = json.dumps(doc, indent=2, sort_keys=True).encode()
            items[str(path.relative_to(out))] = data
    return items


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1]).resolve() if len(argv) == 2 else Path(__file__).resolve().parents[1]
    same = diff = 0
    with tempfile.TemporaryDirectory() as scratch:
        for case in CASES:
            runs = []
            for side, tree in (("parent", parent), ("change", change)):
                workdir = Path(scratch) / case / side
                workdir.mkdir(parents=True)
                runs.append(_run_tree(tree, case, workdir))
            before, after = runs
            for name in sorted(set(before) | set(after)):
                verdict = "SAME" if before.get(name) == after.get(name) else "DIFF"
                if name not in before or name not in after:
                    name += " (only in " + ("change" if name in after else "parent") + ")"
                same, diff = (same + 1, diff) if verdict == "SAME" else (same, diff + 1)
                print(f"{verdict} {case}: {name}")
    print(f"{same} SAME, {diff} DIFF")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
