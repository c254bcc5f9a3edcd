"""Exception types shared across the package."""


class DomainError(ValueError):
    """A value lies outside the admissible domain (potential domain, theta > 0, ...)."""


class ConfigError(ValueError):
    """Invalid configuration text, key, type, or parameter bound."""


class SolverError(RuntimeError):
    """A solver failed to converge: run halves tau on one, and raises one at min_tau."""


class IoError(OSError):
    """Filesystem failure while writing outputs, or a held output-directory lock."""
