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
bumped ref1 with the fixed-step RK4 integrator (h = 0.01). Four cases
reach paths the ref configs skip: ``ref2_families`` (n = 4, unnormalized
betas, exponential phi, power psi, a sweep), ``ref1_subcritical`` (r0 =
0.8, no nontrivial equilibrium), ``ref1_tabulated`` (a tabulated start,
reconstructed past ``age_max``, so the tail mass is used) and
``ref1_r0_20`` (``validate`` only, on the bumped ref1 at r0 = 20 to
t = 10, whose separable oracle sweeps cut up to 14 FFT blocks with ends
that move between sweeps, where the ref configs keep 2 or 3). An override
section that names a ``kind``, or that the base config lacks, replaces or
adds that section whole; any other override updates the section's keys.
Every case runs once with each tree's ``src`` on PYTHONPATH. CHANGE
defaults to the tree holding this script.
Each run works in a fresh temporary directory with relative paths, so
nothing in the outputs names the tree. The exit code, stdout and stderr
of every subcommand and every output file are compared; ``timings`` is
dropped from manifest.json and run_summary.json first. Prints SAME or
DIFF per item, with both trees' codes on each exit item, then a count of
the nonzero exits, so a command that fails in both trees still shows.
Exits 1 on any DIFF.
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
    "ref2_families": ("ref2", {
        **BUMPED,
        "model": {"n": 4, "betas": [0.3, 0.7, 0.2, 0.05], "r0": 6.0, "normalize_betas": False},
        "feedback": {"phi": {"family": "exponential", "k": 2.0},
                     "psi": {"family": "power", "c": 0.5, "gamma": 1.5}},
        "reconstruction": {"age_max": 30.0},
        "sweep": {"r0_values": [0.5, 1.0, 2.0, 40.0]},
    }, COMMANDS),
    "ref1_subcritical": ("ref1", {**BUMPED, "model": {"r0": 0.8}}, COMMANDS),
    "ref1_r0_20": ("ref1", {**BUMPED, "model": {"r0": 20.0}, "oracle": {"t_end": 10.0}}, ("validate",)),
    "ref1_tabulated": ("ref1", {
        "initial_density": {"kind": "tabulated", "ages": [0.0, 1.0, 2.5, 6.0], "values": [0.4, 1.2, 0.6, 0.0]},
        "reconstruction": {"times": [0.5, 3.0, 20.0], "age_max": 8.0},
    }, COMMANDS),
}
TIMED = ("manifest.json", "run_summary.json")


def _run_tree(tree: Path, case: str, workdir: Path) -> dict:
    """Every compared item of one case in one tree, by name."""
    config, overrides, commands = CASES[case]
    doc = json.loads((tree / "configs" / f"{config}.json").read_text(encoding="utf-8"))
    for section, settings in overrides.items():
        if section in doc and "kind" not in settings:
            doc[section].update(settings)
        else:
            doc[section] = dict(settings)
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
    same = diff = failed = 0
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
                label = name
                if name not in before or name not in after:
                    label += " (only in " + ("change" if name in after else "parent") + ")"
                elif name.endswith(" exit"):
                    codes = (before[name].decode(), after[name].decode())
                    failed += codes.count("0") < 2
                    label += f" {codes[0]} / {codes[1]}"
                same, diff = (same + 1, diff) if verdict == "SAME" else (same, diff + 1)
                print(f"{verdict} {case}: {label}")
    print(f"{same} SAME, {diff} DIFF; {failed} commands exited nonzero in a tree")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
