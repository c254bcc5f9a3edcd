"""Exception types shared across the package."""


class DomainError(ValueError):
    """A value lies outside the admissible domain (potential domain, theta > 0, ...)."""


class ConfigError(ValueError):
    """Invalid configuration text, key, type, or parameter bound."""


class SolverError(RuntimeError):
    """An iterative solver failed to converge. Recoverable by step halving."""


class FatalSolverError(RuntimeError):
    """Step halving reached the minimum step size without convergence."""

    def __init__(self, message, step=None, t=None):
        super().__init__(message)
        self.step = step
        self.t = t


class IoError(OSError):
    """Filesystem failure while writing outputs, or a held output-directory lock."""
