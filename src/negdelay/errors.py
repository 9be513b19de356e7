"""Exception types shared across the package.

Each type's ``exit_code`` is the process exit code the CLI returns when
a command stops on that error; the CLI itself holds no table of codes.
"""


class NegdelayError(Exception):
    """Base class for package errors."""

    exit_code = 1


class ConfigError(NegdelayError):
    """Invalid configuration value, key, grid or file, or an unreadable
    shot log."""

    exit_code = 2


class ConvergenceError(NegdelayError):
    """The collision model has no emitter or a per-emitter depth past
    ``oracle.MAX_OD_PER_ATOM``, or a route's post-selection norm is 0."""

    exit_code = 3


class AnalysisError(NegdelayError):
    """Analysis cannot proceed on the given data, such as a degenerate
    post-selection."""

    exit_code = 4
