"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, convergence failures with 3, infeasible analyses with 4.
"""


class NegdelayError(Exception):
    """Base class for package errors."""


class ConfigError(NegdelayError):
    """Invalid configuration value, key, or file (exit code 2)."""


class GridError(ConfigError):
    """Sampling grid violates a resolution or span precondition."""


class ConvergenceError(NegdelayError):
    """An iterative procedure failed to converge (exit code 3)."""


class AnalysisError(NegdelayError):
    """Analysis cannot proceed on the given data (exit code 4)."""


class PostSelectionError(AnalysisError):
    """Post-selection is degenerate: a cycle's click or no-click class is
    empty, or fewer than two cycles are left to estimate the covariance."""
