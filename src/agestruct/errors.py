"""Exception types shared across the package.

The CLI maps these onto its documented exit codes, so new error conditions
should reuse one of the classes below rather than raising bare exceptions.
"""


class AgestructError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(AgestructError, ValueError):
    """A parameter, state entry, or query violates its documented domain."""


class ConfigSchemaError(AgestructError, ValueError):
    """A configuration document is malformed, mistyped, or carries unknown keys."""


class BracketDivergenceError(AgestructError):
    """Root bracketing expanded past its safety bound without a sign change."""


class StepSizeError(AgestructError):
    """The adaptive step size collapsed below the resolvable floor."""


class NegativityError(AgestructError):
    """Integration produced a negative state entry beyond the allowed slack."""


class TrajectoryRangeError(ParameterError):
    """A query time lies outside the computed trajectory, or is not a number."""


class ConvergenceError(AgestructError):
    """Fixed-point iteration hit its sweep budget before reaching tolerance.

    ``sweep_log`` holds the lines of the sweeps run up to the stall.
    """

    def __init__(self, message, update_norm=None, iterations=None, sweep_log=()):
        super().__init__(message)
        self.update_norm = update_norm
        self.iterations = iterations
        self.sweep_log = sweep_log


class EigenvalueError(AgestructError):
    """The LAPACK eigenvalue solve did not converge."""
