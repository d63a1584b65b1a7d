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
t = 10, whose separable oracle sweeps cut up to 12 FFT blocks with ends
and a kernel tilt that move between sweeps, where the ref configs keep
1 to 3). Two more run one subcommand at an edge: ``ref1_short_grid``
(``reconstruct`` on the bumped ref1 at t = 2 on an age grid that ends at
2, so the mass check splits at its last node and counts every initial
cohort as tail mass) and ``ref1_tiny_horizon`` (``simulate`` to t_end =
1e-13, where the step rules scale with the horizon). Three run
``validate`` where the separable oracle refuses, solves or stalls at its
limits: ``ref1_crowded_start`` (ref1 from (1e3, 1.5), P0 about 667, whose
births collapse while the crowding integral climbs past 600),
``ref1_coarse_oracle`` (r0 = 400 on dt = 0.01 to t = 10, beyond the
trapezoid scheme's bound dt < 2 / (r0 * betas[0])) and ``ref1_r0_100``
(r0 = 100 on the same grid, whose Picard sweeps stall after 200 sweeps of
up to 60 FFT blocks, 21 on average). Two more hold a config fault that
only some subcommands meet: ``ref1_no_start`` (``simulate``,
``reconstruct`` and ``validate`` on ref1 without ``initial_density``) and
``ref1_wide_start`` (the same three on ref1 from (1e-6, 1e-6), whose
default age grid and oracle initial cohorts need more than 10^7 nodes).
An override section of None removes that section;
one that names a ``kind``, or that the base config lacks, replaces or
adds it whole; any other override updates the section's keys.
Every case runs once with each tree's ``src`` on PYTHONPATH. CHANGE
defaults to the tree holding this script. One more item, ``public:
agestruct.__all__``, holds the sorted public names each tree's package
exports, so a removed or added name shows as a DIFF that names it.
Each run works in a fresh temporary directory with relative paths, so
nothing in the outputs names the tree. The exit code, stdout and stderr
of every subcommand and every output file are compared; ``timings`` is
dropped from manifest.json and run_summary.json first. Prints SAME or
DIFF per item, with both trees' codes on each exit item, then a count of
the nonzero exits, so a command that fails in both trees still shows.
A DIFF'd ``.csv`` whose two sides parse to float tables of one shape also
shows the largest relative difference of a cell, |a - b| / max(|a|, |b|),
so that round-off (about 1e-14) reads apart from a real change.
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
    "ref1_short_grid": ("ref1", {**BUMPED, "reconstruction": {"times": [2.0], "age_max": 2.0}}, ("reconstruct",)),
    "ref1_tiny_horizon": ("ref1", {"integrator": {"t_end": 1e-13}}, ("simulate",)),
    "ref1_crowded_start": ("ref1", {"initial_density": {"coefficient": 1e3, "decay": 1.5}}, ("validate",)),
    "ref1_coarse_oracle": ("ref1", {"model": {"r0": 400.0}, "oracle": {"t_end": 10.0, "dt": 0.01}}, ("validate",)),
    "ref1_no_start": ("ref1", {"initial_density": None}, ("simulate", "reconstruct", "validate")),
    "ref1_wide_start": ("ref1", {"initial_density": {"coefficient": 1e-6, "decay": 1e-6}},
                        ("simulate", "reconstruct", "validate")),
    "ref1_r0_100": ("ref1", {"model": {"r0": 100.0}, "oracle": {"t_end": 10.0, "dt": 0.01}}, ("validate",)),
}
TIMED = ("manifest.json", "run_summary.json")
PUBLIC = "agestruct.__all__"


def _run_tree(tree: Path, case: str, workdir: Path) -> dict:
    """Every compared item of one case in one tree, by name."""
    config, overrides, commands = CASES[case]
    doc = json.loads((tree / "configs" / f"{config}.json").read_text(encoding="utf-8"))
    for section, settings in overrides.items():
        if settings is None:
            doc.pop(section)
        elif section in doc and "kind" not in settings:
            doc[section].update(settings)
        else:
            doc[section] = dict(settings)
    (workdir / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
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


def _public_names(tree: Path, workdir: Path) -> dict:
    """The sorted ``agestruct.__all__`` of one tree, one name a line, with its stderr."""
    code = "import agestruct; print('\\n'.join(sorted(agestruct.__all__)))"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=workdir, env=env, capture_output=True, timeout=600)
    return {PUBLIC: proc.stdout + proc.stderr}


def _largest_relative_difference(before: bytes, after: bytes):
    """Largest |a - b| / max(|a|, |b|) over the cells of two CSVs below their header, or None.

    None unless every cell of both parses as a float and the two tables have one shape.
    """
    tables = []
    for data in (before, after):
        try:
            tables.append([[float(cell) for cell in line.split(",")] for line in data.decode().splitlines()[1:]])
        except ValueError:
            return None
    if [len(row) for row in tables[0]] != [len(row) for row in tables[1]]:
        return None
    return max(
        (abs(a - b) / max(abs(a), abs(b)) for rows in zip(*tables) for a, b in zip(*rows) if a != b),
        default=0.0,
    )


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1]).resolve() if len(argv) == 2 else Path(__file__).resolve().parents[1]
    same = diff = failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        for case in (*CASES, "public"):
            runs = []
            for side, tree in (("parent", parent), ("change", change)):
                workdir = Path(scratch) / case / side
                workdir.mkdir(parents=True)
                runs.append(_run_tree(tree, case, workdir) if case in CASES else _public_names(tree, workdir))
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
                elif verdict == "DIFF" and name.endswith(".csv"):
                    rel = _largest_relative_difference(before[name], after[name])
                    label += "" if rel is None else f" (largest relative difference {rel:.1e})"
                elif verdict == "DIFF" and name == PUBLIC:
                    names = [set(side[name].decode().split()) for side in runs]
                    label += f" (removed {sorted(names[0] - names[1])}, added {sorted(names[1] - names[0])})"
                same, diff = (same + 1, diff) if verdict == "SAME" else (same, diff + 1)
                print(f"{verdict} {case}: {label}")
    print(f"{same} SAME, {diff} DIFF; {failed} commands exited nonzero in a tree")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
