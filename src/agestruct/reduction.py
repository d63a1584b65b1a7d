"""Exact moment reduction of the age-structured model to an ODE system.

The state is (p, p_1, ..., p_n): total population plus the n weighted age
moments of the density against a**(i-1) * exp(-rho*a). The birth rate is an
algebraic readout of the state, and the system closes exactly because the
fertility age profile is a polynomial times exp(-rho*a).

One Runge-Kutta loop runs two methods: classical fixed-step RK4 and the
adaptive embedded Dormand-Prince 5(4) pair. The integrated vector appends
Z, the running integral of the crowding mortality psi(p), which the density
reconstruction needs, and the loop keeps cubic-Hermite dense output between
accepted steps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    NegativityError,
    ParameterError,
    StepSizeError,
    TrajectoryRangeError,
)
from .quadrature import MAX_GRID_NODES

if TYPE_CHECKING:  # pragma: no cover
    from numpy.typing import ArrayLike

    from .model import FeedbackSpec, ModelParams

NEGATIVE_SLACK = 1e-9


def _clamp_undershoot(y: np.ndarray, error: type, where: str = "", slack: float = NEGATIVE_SLACK) -> int:
    """Apply the undershoot policy to the state entries ``y`` in place.

    An entry below -slack or not finite raises ``error``; the remaining
    negatives are set to zero. Returns how many were zeroed.
    """
    lo, hi = y.min(initial=0.0), y.max(initial=0.0)  # both propagate NaN; an empty y reads 0
    if not (lo >= -slack and hi < math.inf):
        finite = np.isfinite(y)
        if not finite.all():
            raise error(f"state entry {float(y[~finite][0])!r}{where} is not finite")
        shown = repr(float(slack)).replace("e-0", "e-")  # 1e-09 prints as 1e-9
        raise error(f"state entry {float(lo)!r}{where} fell below the -{shown} negativity slack")
    if lo >= 0.0:
        return 0
    negative = y < 0.0
    y[negative] = 0.0
    return int(np.count_nonzero(negative))


def _state_array(state: ArrayLike, params: ModelParams) -> np.ndarray:
    """A float copy of the state [p, p_1, ..., p_n] under the undershoot policy; ParameterError
    unless it is one row of params.n + 1 entries."""
    y = np.array(state, dtype=float)
    if y.shape != (params.n + 1,):
        shape = "" if y.ndim == 1 else f" in shape {y.shape}"
        raise ParameterError(f"state carries {y.size - 1} moments{shape}, expected {params.n}")
    _clamp_undershoot(y, ParameterError)
    return y


def _beta_sum(y: np.ndarray, betas) -> np.ndarray:
    """sum_i beta_i * p_{i+1} of a state or of rows, term by term: a state reads the same bits in any batch."""
    return sum(b * m for b, m in zip(betas, y.T[1:]))


def _births(y: np.ndarray, params, feedback):
    """Birth rate r0 * phi(p) * sum_i beta_i * p_{i+1} of one state or of rows of them.

    A Runge-Kutta stage may dip below 0, so phi sees max(p, 0).
    """
    return params.r0 * feedback.phi(np.maximum(y.T[0], 0.0)) * _beta_sum(y, params.betas)


def _rhs_array(y: np.ndarray, params, feedback) -> np.ndarray:
    # y = (p, p_1, ..., p_n, Z) and y' = A(p) y: births r0 phi(p) beta.m
    # enter p and p_1, p decays at mu0 + psi(p), each moment at
    # rho + mu0 + psi(p), and p_i feeds p_{i+1} at rate i; Z' = psi(p)
    p = y[0]
    phi, psi = feedback.phi_psi(max(p, 0.0))  # as in _births, the feedbacks see max(p, 0)
    births = params.r0 * phi * _beta_sum(y, params.betas)
    out = -(params.rho + params.mu0 + psi) * y
    out[0] = -(params.mu0 + psi) * p + births
    out[1] += births
    if params.n > 1:
        out[2:-1] += np.arange(1, params.n) * y[1:-2]
    out[-1] = psi
    return out


def rhs(state: ArrayLike, params: ModelParams, feedback: FeedbackSpec) -> np.ndarray:
    """Time derivative of the moment system at a state [p, p_1, ..., p_n].

    The first component is the balance law p' = births - (mu0 + psi(p)) * p.
    """
    return _rhs_array(np.append(_state_array(state, params), 0.0), params, feedback)[:-1]  # Z = 0 rides along


def birth_rate(state: ArrayLike, params: ModelParams, feedback: FeedbackSpec) -> float:
    """Birth rate r0 * phi(p) * sum_i beta_i * p_{i+1} at a state; nonnegative."""
    return float(_births(_state_array(state, params), params, feedback))


# ---------------------------------------------------------------------------
# trajectory container with dense output


def _hermite_eval(t_arr: np.ndarray, kt: np.ndarray, ky: np.ndarray, kf: np.ndarray) -> np.ndarray:
    """Cubic-Hermite interpolation between integrator knots (value + derivative)."""
    idx = np.clip(np.searchsorted(kt, t_arr, side="right") - 1, 0, kt.size - 2)
    h = kt[idx + 1] - kt[idx]
    s = np.clip((t_arr - kt[idx]) / h, 0.0, 1.0)
    s2 = s * s
    s3 = s2 * s
    h00 = (2 * s3 - 3 * s2 + 1)[:, None]
    h10 = (s3 - 2 * s2 + s)[:, None]
    h01 = (-2 * s3 + 3 * s2)[:, None]
    h11 = (s3 - s2)[:, None]
    hh = h[:, None]
    return h00 * ky[idx] + h10 * hh * kf[idx] + h01 * ky[idx + 1] + h11 * hh * kf[idx + 1]


@dataclass
class Trajectory:
    """Solution of the moment system: dense-output knots and the samples read from them.

    The knots hold every accepted step of (p, p_1, ..., p_n, Z) and its
    derivative, for cubic-Hermite evaluation at any time in [0, t_end]. The
    samples at ``times`` come from the read behind ``state_at``,
    ``psi_integral_at`` and ``birth_rate_at``; ``clamp_count`` counts the
    entries zeroed at the knots and the samples.
    """

    times: np.ndarray
    states: np.ndarray = field(init=False)
    birth_rates: np.ndarray = field(init=False)
    psi_integral: np.ndarray = field(init=False)
    params: "ModelParams"
    feedback: "FeedbackSpec"
    knot_times: np.ndarray = field(repr=False)
    knot_states: np.ndarray = field(repr=False)
    knot_derivs: np.ndarray = field(repr=False)
    slack: float = NEGATIVE_SLACK  # of the undershoot policy at the knots and in every read
    clamp_count: int = 0

    def __post_init__(self):
        aug, clamped = self._read(self.times)
        self.states = aug[:, :-1]
        self.psi_integral = aug[:, -1]
        self.birth_rates = _births(self.states, self.params, self.feedback)
        self.clamp_count += clamped

    @property
    def t_end(self) -> float:
        return float(self.knot_times[-1])

    def _read(self, t) -> tuple[np.ndarray, int]:
        """Rows [p, moments..., max(Z, 0)] at time(s) t, and how many state entries were zeroed.

        A time outside [0, t_end], to within 1e-12 * t_end, raises
        TrajectoryRangeError; the state entries follow the undershoot policy.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        edge = 1e-12 * self.t_end
        if not np.all((t >= -edge) & (t <= self.t_end + edge)):  # NaN fails both
            raise TrajectoryRangeError(f"query time outside [0, {self.t_end!r}]")
        aug = _hermite_eval(t, self.knot_times, self.knot_states, self.knot_derivs)
        clamped = _clamp_undershoot(aug[:, :-1], NegativityError, " in the dense output", self.slack)
        aug[:, -1] = np.maximum(aug[:, -1], 0.0)
        return aug, clamped

    def state_at(self, t) -> np.ndarray:
        """State rows [p, moments...] at time(s) t, under the undershoot policy."""
        out = self._read(t)[0][:, :-1]
        return out[0] if np.ndim(t) == 0 else out

    def psi_integral_at(self, t):
        """Running integral of psi(p) over [0, t]."""
        out = self._read(t)[0][:, -1]
        return float(out[0]) if np.ndim(t) == 0 else out

    def birth_rate_at(self, t):
        """Birth rate evaluated from the dense-output state at time(s) t."""
        b = _births(self.state_at(t), self.params, self.feedback)
        return float(b) if np.ndim(t) == 0 else b


# ---------------------------------------------------------------------------
# steppers

# Each method is a tuple of stage rows a_i (i = 1..s-1) whose last row holds
# the propagated weights, so the last stage is f at the step's result and is
# the next step's first stage (first-same-as-last). The moment system is
# autonomous, so the nodes c are not needed.
_RK4_A = tuple(
    np.array(row) for row in ((1 / 2,), (0.0, 1 / 2), (0.0, 0.0, 1.0), (1 / 6, 1 / 3, 1 / 3, 1 / 6))
)
_DP45_A = tuple(
    np.array(row)
    for row in (
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
# Dormand-Prince error weights per stage: the 5th- minus the 4th-order solution
_DP45_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
#: method name -> (stage rows, error weights, or None for fixed steps of h)
_METHODS = {"rk4": (_RK4_A, None), "rk45": (_DP45_A, _DP45_E)}


def _integrate_rk(f, y0, t_end, stages, err_weights, h, max_step, rtol, atol, slack):
    """Knot times, states and derivatives of one Runge-Kutta run, and the clamp count.

    With error weights the step adapts to rtol/atol; without them every step
    of h is accepted. A step that ends within 1e-12 * t_end of t_end ends on
    it; one below 1e-14 * t_end, or too small to move t, raises
    StepSizeError. Each accepted step's state entries, all but the last (Z),
    follow the undershoot policy at ``slack``.
    """
    land = 1e-12 * t_end
    t, y = 0.0, y0.copy()
    ts, ys, fs = [t], [y], [f(y)]
    k = np.empty((len(stages) + 1, y0.size))
    clamped = 0
    while t < t_end:
        h = min(h, t_end - t, max_step)
        if h < 1e-14 * t_end or t + h == t:  # the second holds where the first underflows
            raise StepSizeError(f"step size underflow at t={t!r}; problem too stiff")
        k[0] = fs[-1]  # the last accepted derivative, never a rejected trial's stage
        for i, row in enumerate(stages, 1):
            y_new = y + h * (row @ k[:i])
            k[i] = f(y_new)
        err = 0.0
        if err_weights is not None:
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.sqrt(np.mean((h * (err_weights @ k) / scale) ** 2)))
            if not np.isfinite(err):
                h *= 0.2
                continue
        if err <= 1.0:
            t = t_end if t_end - (t + h) < land else t + h
            clamped += _clamp_undershoot(y_new[:-1], NegativityError, f" at t={t!r}", slack)
            y = y_new
            ts.append(t)
            ys.append(y)
            fs.append(k[-1].copy())
        if err_weights is not None:
            h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
    return np.array(ts), np.array(ys), np.array(fs), clamped


def check_integrator(
    method, t_end, samples, rtol, atol, h=None, max_step=None, where: str = "", error: type = ParameterError
) -> None:
    """Raise ``error`` unless method is in _METHODS, rk4 has h and neither method has the other's step;
    then ParameterError unless t_end, h and max_step (when given) are positive and finite, t_end / h and
    t_end / max_step are below MAX_GRID_NODES, samples is an integer in [2, MAX_GRID_NODES], and
    rtol > 0 and atol >= 0 are finite; ``where`` prefixes each name."""
    if not isinstance(method, str) or method not in _METHODS:
        raise error(f"{where}method: expected {' or '.join(map(repr, _METHODS))}")
    if method == "rk4" and h is None:
        raise error(f"{where}h: required for method 'rk4'")
    for name, step, owner in (("h", h, "rk4"), ("max_step", max_step, "rk45")):
        if step is not None and method != owner:
            raise error(f"{where}{name}: only applies to method {owner!r}")
    if not 0 < t_end < math.inf:
        raise ParameterError(f"{where}t_end must be positive and finite")
    if samples < 2:
        raise ParameterError(f"{where}samples must be at least 2")
    if samples > MAX_GRID_NODES:
        raise ParameterError(f"{where}samples must be at most {MAX_GRID_NODES}")
    if not isinstance(samples, numbers.Integral):
        raise ParameterError(f"{where}samples: expected an integer")
    if not (rtol > 0 and atol >= 0):
        raise ParameterError(f"{where}rtol must be positive and {where}atol nonnegative")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if tol == math.inf:
            raise ParameterError(f"{where}{name}: must be finite")
    for name, step in (("h", h), ("max_step", max_step)):
        if step is not None and not 0 < step < math.inf:
            raise ParameterError(f"{where}{name} must be positive and finite")
        if step is not None and not t_end / step < MAX_GRID_NODES:  # the knots are kept in lists
            raise ParameterError(f"{where}t_end / {where}{name} needs more than {MAX_GRID_NODES} knots")


def integrate(
    initial: ArrayLike,
    params: ModelParams,
    feedback: FeedbackSpec,
    t_end: float,
    *,
    method: str = "rk45",
    h: float | None = None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_step: float | None = None,
    n_samples: int = 1001,
) -> Trajectory:
    """Integrate the moment system over [0, t_end] and sample the solution.

    method 'rk4' takes fixed steps of h (the last step is shortened to land
    on t_end); 'rk45' is adaptive with the given rtol/atol. The samples are
    the n_samples times np.linspace(0, t_end, n_samples), evaluated from the
    dense output; ``state_at``, ``birth_rate_at`` and ``psi_integral_at``
    read any other time in [0, t_end]. States are kept nonnegative per the
    undershoot policy, whose slack for 'rk45' grows to sqrt(n + 2) * atol;
    the number of clamped entries is ``Trajectory.clamp_count``. rk4 takes
    no max_step and rk45 no h; ``check_integrator`` checks the settings.
    """
    check_integrator(method, t_end, n_samples, rtol, atol, h, max_step)
    stages, err_weights = _METHODS[method]
    y0 = np.append(_state_array(initial, params), 0.0)  # Z starts at 0
    if err_weights is None:
        max_step, slack = h, NEGATIVE_SLACK
    else:
        if max_step is None:
            max_step = t_end / 20.0
        h = min(max_step, t_end / 100.0)
        # a step passes at an RMS error of 1 over the y0.size entries, so one
        # entry near zero may carry sqrt(y0.size) * atol of accepted error
        slack = max(NEGATIVE_SLACK, math.sqrt(y0.size) * atol)
    kt, ky, kf, clamped = _integrate_rk(
        lambda y: _rhs_array(y, params, feedback),
        y0, float(t_end), stages, err_weights, float(h), float(max_step), float(rtol), float(atol), slack
    )
    return Trajectory(
        times=np.linspace(0.0, t_end, n_samples),
        params=params,
        feedback=feedback,
        knot_times=kt,
        knot_states=ky,
        knot_derivs=kf,
        slack=slack,
        clamp_count=clamped,
    )
