"""CSV writers for run outputs.

All numeric cells use Python's shortest round-trip float repr so files are
byte-identical across runs and reload to the exact binary values. Writers
return the path they wrote so callers can collect a manifest. Every file is
written to a hidden sibling first and moved into place, so a reader never
sees it half-written.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from .oracle import OracleSolution
from .reconstruct import DensityField
from .reduction import Trajectory
from .steady import SweepPoint


def fmt(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


@contextmanager
def atomic_open(path):
    """Text handle on ``.<name>.<pid>.tmp`` that replaces ``path`` when the block succeeds."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def write_lines(path, rows: Iterable[str]) -> Path:
    """One line per row."""
    path = Path(path)
    with atomic_open(path) as fh:
        for row in rows:
            fh.write(row + "\n")
    return path


def _write_columns(path, header: str, columns) -> Path:
    """One row per index of the equal-length numeric columns."""
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns))
    return write_lines(path, chain([header], (",".join(map(fmt, row)) for row in rows)))


def write_trajectory_csv(path, traj: Trajectory) -> Path:
    """Sampled trajectory: t,p,p1,...,pn,b,psi_int."""
    n = traj.states.shape[1] - 1
    header = "t,p," + ",".join(f"p{i}" for i in range(1, n + 1)) + ",b,psi_int"
    columns = (traj.times, *traj.states.T, traj.birth_rates, traj.psi_integral)
    return _write_columns(path, header, columns)


def write_sweep_csv(path, points: Iterable[SweepPoint]) -> Path:
    """Bifurcation sweep: r0,p_star,exists (empty p_star when none)."""
    rows = (
        ",".join(
            [fmt(pt.r0), fmt(pt.p_star) if pt.exists else "", "true" if pt.exists else "false"]
        )
        for pt in points
    )
    return write_lines(path, chain(["r0,p_star,exists"], rows))


def write_density_csv(path, field: DensityField) -> Path:
    """Reconstructed age profile at one time: a,p."""
    return _write_columns(path, "a,p", (field.age_grid, field.values))


def density_filename(t: float) -> str:
    return f"density_t{fmt(t)}.csv"


def write_oracle_csv(path, solution: OracleSolution) -> Path:
    """Integral-equation solution: t,b,p."""
    return _write_columns(path, "t,b,p", (solution.times, solution.birth_rates, solution.populations))
