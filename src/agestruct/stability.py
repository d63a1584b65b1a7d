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
from .reduction import StateVector
from .steady import EquilibriumReport

VERDICT_MARGIN = 1e-8


def jacobian_at(state: StateVector, params: ModelParams, feedback: FeedbackSpec) -> np.ndarray:
    """Closed-form Jacobian of the moment-system rhs at a state."""
    if len(state.moments) != params.n:
        raise ParameterError(f"state carries {len(state.moments)} moments, expected {params.n}")
    n = params.n
    p = state.p
    mom = np.asarray(state.moments)
    betas = np.asarray(params.betas)
    phi = float(feedback.phi(p))
    dphi = float(feedback.phi_prime(p))
    psi = float(feedback.psi(p))
    dpsi = float(feedback.psi_prime(p))

    jac = np.zeros((n + 1, n + 1))
    # row 0: total population balance
    jac[0, 0] = -(params.mu0 + psi) - dpsi * p + params.r0 * dphi * float(betas @ mom)
    jac[0, 1:] = params.r0 * phi * betas
    # row 1: first weighted moment
    late = float(betas[1:] @ mom[1:]) if n > 1 else 0.0
    jac[1, 0] = (params.r0 * betas[0] * dphi - dpsi) * mom[0] + params.r0 * dphi * late
    jac[1, 1] = params.r0 * betas[0] * phi - params.rho - params.mu0 - psi
    if n > 1:
        jac[1, 2:] = params.r0 * phi * betas[1:]
        decay = params.rho + params.mu0 + psi
        for i in range(1, n):
            jac[i + 1, 0] = -dpsi * mom[i]
            jac[i + 1, i] = float(i)
            jac[i + 1, i + 1] = -decay
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


def _report(state: StateVector, params: ModelParams, feedback: FeedbackSpec) -> StabilityReport:
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


def classify(equilibrium: EquilibriumReport, params: ModelParams, feedback: FeedbackSpec) -> StabilityReport:
    """Stability of the equilibrium the report describes (the origin when
    no nontrivial equilibrium exists)."""
    state = StateVector(p=equilibrium.p_star, moments=equilibrium.moments_star)
    return _report(state, params, feedback)


def classify_trivial(params: ModelParams, feedback: FeedbackSpec) -> StabilityReport:
    """Stability of the all-zero equilibrium."""
    state = StateVector(p=0.0, moments=(0.0,) * params.n)
    return _report(state, params, feedback)
