"""Exception types shared across the package."""


class RenewalClusterError(Exception):
    """Base class for all package-specific errors."""


class WindowError(RenewalClusterError):
    """Requested interval is not contained in the pattern's window."""


class LawError(RenewalClusterError, ValueError):
    """Invalid distribution parameters."""


class RunawayGenerationError(RenewalClusterError):
    """Arrival count exceeded the configured cap (mean interarrival ~ 0?)."""


class QuadratureError(RenewalClusterError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


class ConfigError(RenewalClusterError):
    """Malformed or unknown experiment configuration."""
