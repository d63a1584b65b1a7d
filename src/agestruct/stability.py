"""Linearized stability of equilibria of the moment system.

The Jacobian is assembled from closed-form partial derivatives; its
eigenvalues come from LAPACK through ``numpy.linalg.eigvals``. Verdicts
compare the spectral abscissa against a +-1e-8 margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenvalueError, ParameterError
from .model import FeedbackSpec, ModelParams
from .reduction import StateVector, _beta_sum, _state_array
from .steady import EquilibriumReport, trivial_equilibrium

VERDICT_MARGIN = 1e-8


def jacobian_at(state: StateVector, params: ModelParams, feedback: FeedbackSpec) -> np.ndarray:
    """Closed-form Jacobian of the moment-system rhs y' = A(p) y at a state.

    It is A(p) with column 0 replaced by d(A(p) y)/dp.
    """
    y = _state_array(state, params)
    n, p = params.n, y[0]
    psi = feedback.psi(p)
    jac = np.diag(np.arange(float(n)), -1)  # p_i feeds p_{i+1} at rate i
    np.fill_diagonal(jac, -(params.rho + params.mu0 + psi))
    jac[:2, 1:] += params.r0 * feedback.phi(p) * np.asarray(params.betas)
    column = -feedback.psi_prime(p) * y
    column[:2] += params.r0 * feedback.phi_prime(p) * _beta_sum(y, params.betas)
    column[0] -= params.mu0 + psi
    jac[:, 0] = column
    return jac


def eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a real square matrix, sorted by (real, imag).

    LAPACK (``numpy.linalg.eigvals``) does the work. The result is always
    complex, even when the whole spectrum is real. Raises EigenvalueError
    when LAPACK fails to converge.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError("eigenvalues expects a square 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ParameterError("eigenvalues expects finite matrix entries")
    try:
        evs = np.linalg.eigvals(a).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise EigenvalueError(f"eigenvalue solve failed: {exc}") from exc
    order = np.lexsort((evs.imag, evs.real))
    return evs[order]


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class StabilityReport:
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    spectral_abscissa: float
    verdict: str
    trace: float


def _verdict(abscissa: float) -> str:
    if abscissa < -VERDICT_MARGIN:
        return "asymptotically stable"
    if abscissa > VERDICT_MARGIN:
        return "unstable"
    return "marginal"


def classify(equilibrium: EquilibriumReport, params: ModelParams, feedback: FeedbackSpec) -> StabilityReport:
    """Stability of the equilibrium the report describes (the origin when
    no nontrivial equilibrium exists)."""
    state = StateVector(p=equilibrium.p_star, moments=equilibrium.moments_star)
    jac = jacobian_at(state, params, feedback)
    evs = eigenvalues(jac)
    abscissa = float(np.max(evs.real))
    return StabilityReport(
        jacobian=jac,
        eigenvalues=evs,
        spectral_abscissa=abscissa,
        verdict=_verdict(abscissa),
        trace=float(np.trace(jac)),
    )


def classify_trivial(params: ModelParams, feedback: FeedbackSpec) -> StabilityReport:
    """Stability of the all-zero equilibrium."""
    return classify(trivial_equilibrium(params, feedback), params, feedback)
