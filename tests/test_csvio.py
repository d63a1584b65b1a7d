import numpy as np
import pytest

import agestruct as ag
from agestruct import csvio
from agestruct.csvio import atomic_open, write_lines


def test_atomic_open_failure_keeps_the_old_target(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old,contents\n")
    with pytest.raises(RuntimeError, match="interrupted"):
        with atomic_open(target) as fh:
            fh.write("half,written\n")
            fh.flush()
            assert len(list(tmp_path.glob(".*.tmp"))) == 1
            raise RuntimeError("interrupted")
    assert target.read_bytes() == b"old,contents\n"
    assert list(tmp_path.glob(".*.tmp")) == []


def test_write_lines_ends_every_row_and_writes_nothing_for_no_rows(tmp_path):
    assert write_lines(tmp_path / "two.csv", iter(["a,b", "1.0,2.5"])).read_bytes() == b"a,b\n1.0,2.5\n"
    assert write_lines(tmp_path / "none.txt", []).read_bytes() == b""


def _reload(path):
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return header.split(","), [row.split(",") for row in rows]


def _assert_reloads(path, columns):
    """Every cell of the file reads back as its value, to the bit."""
    names, rows = _reload(path)
    assert len(rows) == len(columns[0]) and all(len(row) == len(names) == len(columns) for row in rows)
    for row, values in zip(rows, zip(*columns)):
        assert all(float(cell) == value for cell, value in zip(row, values)), row


def test_every_csv_writer_reloads_bit_for_bit(tmp_path, ref2):
    p0 = ag.ExponentialDensity(1.65, 1.5)
    start = ag.density_moments(p0, ref2.params.rho, ref2.params.n)
    traj = ag.integrate(start, ref2.params, ref2.feedback, t_end=3.0, n_samples=31)
    _assert_reloads(
        csvio.write_trajectory_csv(tmp_path / "trajectory.csv", traj),
        [traj.times, *traj.states.T, traj.birth_rates, traj.psi_integral],
    )
    field = ag.reconstruct_density(traj, p0, ref2.params, ref2.feedback, 2.0, np.linspace(0.0, 4.0, 41))
    _assert_reloads(csvio.write_density_csv(tmp_path / "density.csv", field), [field.age_grid, field.values])
    solution = ag.volterra_solve(ag.from_separable(ref2.params, ref2.feedback, p0), 1.0, 0.05)
    _assert_reloads(
        csvio.write_oracle_csv(tmp_path / "oracle.csv", solution),
        [solution.times, solution.birth_rates, solution.populations],
    )
    points = ag.bifurcation_sweep(ref2.params, ref2.feedback, [0.5, 1.0 / 3.0, 16.0 / 3.0, 9.7])
    names, rows = _reload(csvio.write_sweep_csv(tmp_path / "sweep.csv", points))
    assert names == ["r0", "p_star", "exists"] and len(rows) == len(points)
    assert [point.exists for point in points] == [False, False, True, True]
    for (r0, p_star, exists), point in zip(rows, points):
        assert float(r0) == point.r0 and exists == str(point.exists).lower()
        assert (float(p_star) == point.p_star) if point.exists else p_star == ""
