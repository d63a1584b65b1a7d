import math
import re

import numpy as np
import pytest

from agestruct.errors import ParameterError
from agestruct.quadrature import cumulative_trapezoid, simpson, trapezoid, uniform_grid


def test_trapezoid_linear_exact():
    x = np.linspace(0.0, 3.0, 31)
    assert math.isclose(trapezoid(2 * x + 1, 0.1), 12.0, rel_tol=1e-13)


def test_trapezoid_degenerate():
    assert trapezoid([], 0.1) == 0.0
    assert trapezoid([5.0], 0.1) == 0.0


def test_cumulative_trapezoid_matches_total():
    y = np.sin(np.linspace(0, 2, 101))
    out = cumulative_trapezoid(y, 0.02)
    assert out[0] == 0.0
    assert math.isclose(out[-1], trapezoid(y, 0.02), rel_tol=1e-14)
    assert np.all(np.diff(out) >= 0)  # nonnegative integrand here


def test_simpson_exact_on_quadratic_nonuniform():
    # composite rule integrates quadratics exactly on any node layout,
    # including an odd interval count
    x = np.array([0.0, 0.3, 0.9, 1.0, 1.7, 2.0, 2.2])
    y = 3 * x**2 - 2 * x + 1
    exact = x[-1] ** 3 - x[-1] ** 2 + x[-1]
    assert math.isclose(simpson(y, x), exact, rel_tol=1e-13)


def test_simpson_two_nodes_falls_back_to_trapezoid():
    assert math.isclose(simpson([1.0, 3.0], [0.0, 2.0]), 4.0, rel_tol=1e-15)


def test_simpson_fourth_order_convergence():
    exact = 1 - math.cos(1.0)
    errs = []
    for n in (8, 16):
        x = np.linspace(0, 1, 2 * n + 1)
        errs.append(abs(simpson(np.sin(x), x) - exact))
    assert errs[0] / errs[1] > 12  # ~16 for a fourth-order rule


@pytest.mark.parametrize(
    "y, x",
    [([1.0, 2.0, 3.0], [0.0, 1.0]), ([1.0, 2.0], [0.0, 1.0, 2.0]), ([[1.0, 2.0]], [[0.0, 1.0]])],
    ids=["y-longer", "x-longer", "2-d"],
)
def test_simpson_rejects_mismatched_arrays(y, x):
    with pytest.raises(ValueError, match="matching 1-d arrays"):
        simpson(y, x)


def test_uniform_grid_reaches_length():
    assert np.array_equal(uniform_grid(0.0, 0.1), [0.0])
    # 0.07 / 0.01 rounds above 7; the 1e-9 slack keeps it at seven steps
    assert uniform_grid(0.07, 0.01).size == 8
    grid = uniform_grid(1.05, 0.1)
    assert grid.size == 12 and grid[-1] == 11 * 0.1
    assert np.array_equal(grid, np.linspace(0.0, 11 * 0.1, 12))


@pytest.mark.parametrize(
    "length, step, problem",
    [
        (1.0, 0.0, "needs a length >= 0 and a finite step > 0"),
        (1.0, -0.1, "needs a length >= 0 and a finite step > 0"),
        (1.0, math.inf, "needs a length >= 0 and a finite step > 0"),
        (1.0, math.nan, "needs a length >= 0 and a finite step > 0"),
        (-1.0, 0.1, "needs a length >= 0 and a finite step > 0"),
        (math.nan, 0.1, "needs a length >= 0 and a finite step > 0"),
        (math.inf, 0.1, "needs more than 10000000 nodes"),
        (1e5, 1e-3, "needs more than 10000000 nodes"),
    ],
    ids=["zero-step", "negative-step", "infinite-step", "nan-step", "negative-length", "nan-length",
         "infinite-length", "too-many-nodes"],
)
def test_uniform_grid_rejects_bad_sizes(length, step, problem):
    with pytest.raises(ParameterError, match=f"^{re.escape(f'age grid [0, {length!r}] at step {step!r} {problem}')}$"):
        uniform_grid(length, step)

