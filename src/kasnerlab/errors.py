"""Exception types shared across the package.

Every numerical abort condition gets its own class so the CLI can map
failures onto exit codes without string matching.
"""


class KasnerLabError(Exception):
    """Base class for all package errors."""


class ConfigError(KasnerLabError):
    """Bad configuration value, malformed config file, or invalid override."""


class GridError(KasnerLabError):
    """Invalid grid construction or field/grid mismatch."""


class SymmetryError(KasnerLabError):
    """Tensor values violate their declared symmetry beyond rounding."""


class DegenerateExponentsError(KasnerLabError):
    """Exponent field touches a degenerate point (p2 = p3 or p3 = 1)."""


class NonIntegrableError(KasnerLabError):
    """Log-time quadrature tail fit detected non-integrable growth at t -> 0."""


class SingularFrameError(KasnerLabError):
    """Frame matrix not invertible at some grid point."""

