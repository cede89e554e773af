"""Exception types shared across the package.

Input that a public function cannot accept is a ConfigError, whichever
check rejects it: a bad grid, a field of the wrong shape, a missing or
non-finite value.  Every numerical abort condition gets its own class, so
callers can tell failures apart by type rather than by message text.
"""


class KasnerLabError(Exception):
    """Base class for all package errors."""


class ConfigError(KasnerLabError):
    """Input that a public function cannot accept: a bad value, shape, or
    combination of arguments."""


class DegenerateExponentsError(KasnerLabError):
    """Exponent field touches a degenerate point (p2 = p3 or p3 = 1)."""


class NonIntegrableError(KasnerLabError):
    """Log-time quadrature tail fit detected non-integrable growth at t -> 0."""


class SingularFrameError(KasnerLabError):
    """Frame matrix not invertible at some grid point."""

