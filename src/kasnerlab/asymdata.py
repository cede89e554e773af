"""Asymptotic data on the singularity.

Builds and validates the data that parametrize a Kasner-like singularity:
position-dependent exponents p_i, leading metric coefficients c_ij, the
upper-triangular frame matrix f_Ia with its inverse h_aC, and the kappa
fields that encode the off-diagonal momentum content.  The differential
constraint is enforced by integrating transport equations along x^3 lines;
the free inputs are three 3-variable functions (c22, c33, kappa_1^2) and
three 2-variable slices at x^3 = 0 (c11, kappa_2^3, kappa_1^3), matching
the degrees-of-freedom count of the underlying existence argument.

Conventions
-----------
Matrix-valued fields are ndarrays of shape (3, 3) + grid.shape, 0-based.
Public operations that take a direction use 1-based labels i, I in {1,2,3}
to match the coordinate names x^1, x^2, x^3.

Residual conventions, with V = c11*c22*c33 and D_a the grid derivative:

  mom_i   = sum_l [ (D_i c_ll / c_ll)(p_l - p_i) + 2 D_l kappa_i^l
                    + [l > i] (D_l V / V) kappa_i^l ]
  frame_I = E_I p_I + sum_J (p_J - p_I) E_I log f_JJ
            - sum_{J>=I} sum_{I<=a<=J} (p_J - p_I) h_aJ E_J f_Ia

where E_I = sum_{a>=I} f_Ia D_a, kappa_i^i = -p_i, kappa_i^l = 0 for l < i.
The two residual families are related pointwise by the invertible frame
matrix, frame_I = -(1/2) sum_a f_Ia mom_a, with no use of the constraint
itself; the test suite verifies this identity symbolically.
"""

import numpy as np
from scipy.integrate import cumulative_simpson

from .errors import ConfigError, DegenerateExponentsError, GridError
from .grids import PERIODIC, ScalarField, fd_diff

ALGEBRAIC_TOL = 1e-12
DEGENERACY_FLOOR = 1e-8
DATASET_REL_TOL = 1e-10


def _values_on(grid, x, name):
    """Normalize scalar / ndarray / ScalarField input to a grid-shaped array."""
    if x is None:
        raise ConfigError(f"{name} is required")
    if isinstance(x, ScalarField):
        if x.grid != grid:
            raise GridError(f"{name} lives on a different grid")
        return np.asarray(x.values, dtype=float)
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.shape, float(arr))
    if arr.shape != grid.shape:
        raise GridError(f"{name} has shape {arr.shape}, expected {grid.shape}")
    return arr


def _slice_on(grid, x, name, default):
    """Normalize a 2-variable slice prescribed at x^3 = 0 to shape (n, n, 1)."""
    if x is None:
        x = default
    if isinstance(x, ScalarField):
        x = x.values
    arr = np.asarray(x, dtype=float)
    n = grid.n_pts
    if arr.ndim == 0:
        return np.full((n, n, 1), float(arr))
    if arr.shape == (n, n):
        return arr[:, :, None].astype(float)
    raise GridError(f"{name} must be scalar or shape ({n}, {n}), got {arr.shape}")


class KasnerExponents:
    """Position-dependent exponent triple p1 < p2 < p3 with both sum relations.

    Stores the margin eps = min over the grid of min(1 - p3, p3 - p2); every
    decay estimate downstream is phrased in terms of eps, and the data set is
    rejected when either gap closes to within DEGENERACY_FLOOR.
    """

    def __init__(self, grid, p1, p2, p3):
        self.grid = grid
        self.p1 = _values_on(grid, p1, "p1")
        self.p2 = _values_on(grid, p2, "p2")
        self.p3 = _values_on(grid, p3, "p3")
        self._validate()
        self.eps = float(np.min(np.minimum(1.0 - self.p3, self.p3 - self.p2)))

    def _validate(self):
        sum1 = self.p1 + self.p2 + self.p3
        sum2 = self.p1**2 + self.p2**2 + self.p3**2
        err1 = float(np.max(np.abs(sum1 - 1.0)))
        err2 = float(np.max(np.abs(sum2 - 1.0)))
        if err1 > ALGEBRAIC_TOL or err2 > ALGEBRAIC_TOL:
            raise ConfigError(
                "exponent relations violated: max|p1+p2+p3-1| = "
                f"{err1:.3e}, max|p1^2+p2^2+p3^2-1| = {err2:.3e} "
                f"(tolerance {ALGEBRAIC_TOL})"
            )
        if not (np.all(self.p1 < self.p2) and np.all(self.p2 < self.p3)):
            bad = np.argwhere((self.p1 >= self.p2) | (self.p2 >= self.p3))[0]
            raise DegenerateExponentsError(
                f"exponents not strictly ordered at grid index {tuple(int(v) for v in bad)}"
            )
        gap = np.minimum(1.0 - self.p3, self.p3 - self.p2)
        if np.min(gap) < DEGENERACY_FLOOR:
            bad = np.unravel_index(int(np.argmin(gap)), self.p3.shape)
            raise DegenerateExponentsError(
                f"exponent gap min(1-p3, p3-p2) = {np.min(gap):.3e} at grid index "
                f"{tuple(int(v) for v in bad)} is below {DEGENERACY_FLOOR}; every "
                "decay rate degenerates in this limit"
            )

    def as_array(self):
        """Stacked (3,) + grid.shape array (p1, p2, p3)."""
        return np.stack([self.p1, self.p2, self.p3])

    def __repr__(self):
        return f"KasnerExponents(grid={self.grid!r}, eps={self.eps:.6g})"


def exponents_from_u(u):
    """Exponent triple from the one-parameter pointwise solution of both relations.

    p1 = -u/d, p2 = (1+u)/d, p3 = u(1+u)/d with d = 1 + u + u^2 satisfies
    p1 + p2 + p3 = 1 and p1^2 + p2^2 + p3^2 = 1 identically, and u > 1
    guarantees strict ordering p1 < 0 < p2 < p3.
    """
    if not isinstance(u, ScalarField):
        raise ConfigError(f"exponents_from_u needs a ScalarField, got {type(u).__name__}")
    uv = u.values
    if np.any(uv <= 1.0):
        bad = np.unravel_index(int(np.argmin(uv)), uv.shape)
        raise DegenerateExponentsError(
            f"u must exceed 1 everywhere (ordering degenerates at u = 1); "
            f"min u = {float(np.min(uv)):.6g} at grid index {tuple(int(v) for v in bad)}"
        )
    d = 1.0 + uv + uv * uv
    p1 = -uv / d
    p2 = (1.0 + uv) / d
    p3 = uv * (1.0 + uv) / d
    return KasnerExponents(u.grid, p1, p2, p3)


# ---------------------------------------------------------------------------
# frame / coframe / metric coefficient algebra (pointwise, closed-form)
# ---------------------------------------------------------------------------


def frame_matrix_from_metric(c):
    """Upper-triangular frame coefficients f_Ia from the symmetric c matrix."""
    f = np.zeros_like(c)
    f[0, 0] = c[0, 0] ** -0.5
    f[1, 1] = c[1, 1] ** -0.5
    f[2, 2] = c[2, 2] ** -0.5
    f[0, 1] = -f[0, 0] * c[0, 1] / c[1, 1]
    f[1, 2] = -f[1, 1] * c[1, 2] / c[2, 2]
    f[0, 2] = f[0, 0] * (c[0, 1] * c[1, 2] / (c[1, 1] * c[2, 2]) - c[0, 2] / c[2, 2])
    return f


def coframe_matrix_from_frame(f):
    """h = f^{-1} in closed form (both are upper-triangular)."""
    h = np.zeros_like(f)
    h[0, 0] = 1.0 / f[0, 0]
    h[1, 1] = 1.0 / f[1, 1]
    h[2, 2] = 1.0 / f[2, 2]
    h[0, 1] = -f[0, 1] / (f[0, 0] * f[1, 1])
    h[1, 2] = -f[1, 2] / (f[1, 1] * f[2, 2])
    h[0, 2] = (f[0, 1] * f[1, 2] / f[1, 1] - f[0, 2]) / (f[0, 0] * f[2, 2])
    return h


# the entries (i, j), i <= j, that fix a symmetric 3x3 matrix
_UPPER = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))


def _metric_entry(f, i, j):
    """c_ij, i <= j, from the frame coefficients: the closed-form inverse of
    frame_matrix_from_metric, one entry at a time."""
    if i == j:
        return f[i, i] ** -2.0
    if j == i + 1:
        return -f[i, j] / (f[i, i] * f[j, j] ** 2)
    return (f[0, 1] * f[1, 2] / f[1, 1] - f[0, 2]) / (f[0, 0] * f[2, 2] ** 2)


def metric_from_frame_matrix(f):
    """Inverse of frame_matrix_from_metric."""
    c = np.empty_like(f)
    for i, j in _UPPER:
        c[i, j] = c[j, i] = _metric_entry(f, i, j)
    return c


def kappa_fields_from_metric(p, c):
    """The three stored off-diagonal kappa fields (kappa_1^2, kappa_2^3, kappa_1^3)."""
    k12 = (p.p1 - p.p2) * c[0, 1] / c[1, 1]
    k23 = (p.p2 - p.p3) * c[1, 2] / c[2, 2]
    k13 = (p.p2 - p.p1) * c[0, 1] * c[1, 2] / (c[1, 1] * c[2, 2]) + (p.p1 - p.p3) * c[0, 2] / c[2, 2]
    return k12, k23, k13


class SeamReport:
    """Loop-integral mismatch of the x^3 transports on a periodic grid.

    Each entry is the max over (x^1, x^2) of the jump the transport solution
    would make across the x^3 seam; identically ~0 only for data families
    whose loop integrals vanish.  The kappa entries are normalized by the
    integrating factor at the slice and are meaningful when the c11 seam is
    itself clean.
    """

    def __init__(self, c11_jump, kappa23_jump, kappa13_jump):
        self.c11_jump = float(c11_jump)
        self.kappa23_jump = float(kappa23_jump)
        self.kappa13_jump = float(kappa13_jump)

    @property
    def max_jump(self):
        return max(self.c11_jump, self.kappa23_jump, self.kappa13_jump)

    def __repr__(self):
        return (
            f"SeamReport(c11={self.c11_jump:.3e}, kappa23={self.kappa23_jump:.3e}, "
            f"kappa13={self.kappa13_jump:.3e})"
        )


def _max_abs(fields):
    """max|x| over a sequence of grid fields, one field at a time: no
    whole-matrix |x| is formed, and a NaN propagates as in np.max."""
    return float(np.max([np.max(np.abs(x)) for x in fields]))


class AsymptoticDataSet:
    """Exponents plus metric/frame coefficient blocks forming data on the singularity.

    Construction derives f, h, and the kappa fields from (p, c), so the
    pointwise coefficient identities hold by construction; validation checks
    positivity, symmetry, finiteness, and the c -> f -> c round trip to
    DATASET_REL_TOL.  The momentum residuals are NOT checked here -- data
    violating the differential constraint are legitimate objects (that is the
    point of the constraint diagnostics).
    """

    def __init__(self, grid, p, c, seam=None):
        if p.grid != grid:
            raise GridError("exponents live on a different grid")
        c = np.asarray(c, dtype=float)
        if c.shape != (3, 3) + grid.shape:
            raise GridError(f"c must have shape (3, 3) + grid.shape, got {c.shape}")
        self.grid = grid
        self.p = p
        self.c = c
        scale = self._validate_metric()
        self.f = frame_matrix_from_metric(c)
        self.h = coframe_matrix_from_frame(self.f)
        self.kappa12, self.kappa23, self.kappa13 = kappa_fields_from_metric(p, c)
        self.seam = seam
        self._validate_round_trip(scale)

    def _validate_metric(self):
        """Finite, positive-diagonal and symmetric c; returns max|c|."""
        c = self.c
        if not all(np.isfinite(c[i, j]).all() for i, j in np.ndindex(3, 3)):
            raise ConfigError("c contains non-finite entries")
        for i in range(3):
            if np.any(c[i, i] <= 0.0):
                bad = np.unravel_index(int(np.argmin(c[i, i])), self.grid.shape)
                raise ConfigError(
                    f"c{i + 1}{i + 1} must be positive; min = "
                    f"{float(np.min(c[i, i])):.3e} at grid index {tuple(int(v) for v in bad)}"
                )
        scale = _max_abs(c[i, j] for i, j in np.ndindex(3, 3))
        asym = _max_abs(c[i, j] - c[j, i] for i, j in _UPPER if i != j)
        if asym > DATASET_REL_TOL * scale:
            raise ConfigError(f"c is not symmetric: max|c - c^T| = {asym:.3e}")
        return scale

    def _validate_round_trip(self, scale):
        err = _max_abs(self._round_trip_errors())
        if not err <= DATASET_REL_TOL * scale:
            raise ConfigError(
                f"metric/frame round trip failed: max error {err:.3e} vs scale {scale:.3e}"
            )

    def _round_trip_errors(self):
        """metric_from_frame_matrix(f) - c, one entry at a time."""
        for i, j in _UPPER:
            back = _metric_entry(self.f, i, j)
            yield back - self.c[i, j]
            if i != j:
                yield back - self.c[j, i]

    def __repr__(self):
        return f"AsymptoticDataSet(grid={self.grid!r}, eps={self.p.eps:.6g}, seam={self.seam!r})"


# ---------------------------------------------------------------------------
# transport solves along x^3
# ---------------------------------------------------------------------------


def _cumint_x3(integrand, grid):
    """Cumulative integral from x^3 = 0 along the last axis (composite Simpson)."""
    return cumulative_simpson(integrand, dx=grid.h, axis=-1, initial=0.0)


def _check_gaps(p):
    if np.min(p.p3 - p.p2) < DEGENERACY_FLOOR or np.min(p.p3 - p.p1) < DEGENERACY_FLOOR:
        raise DegenerateExponentsError("exponent gaps too small for the transport solves")


def _positive_diagonal(grid, **fields):
    """The named diagonal metric entries as grid arrays, each checked positive."""
    arrays = []
    for name, x in fields.items():
        arr = _values_on(grid, x, name)
        if np.any(arr <= 0.0):
            raise ConfigError(f"{name} must be positive everywhere")
        arrays.append(arr)
    return arrays


def _seam_jump(integrand, grid, mu=None):
    """max over (x^1, x^2) of the integral of an x^3 transport's integrand
    over one full period (all points carry equal weight), divided by the
    integrating factor mu at the slice if given: the jump the solution makes
    across the x^3 seam of a periodic grid.  None on a localized grid, which
    has no seam."""
    if grid.mode != PERIODIC:
        return None
    loop = grid.h * np.sum(integrand, axis=-1)
    return np.max(np.abs(loop if mu is None else loop / mu[:, :, 0]))


def solve_c11(p, c22, c11_slice=None):
    """Integrate the x^3-direction constraint for c11.

    log c11(x) = log c11(x^1, x^2, 0)
                 - int_0^{x^3} [ (p3-p2)/(p3-p1) D_3 log c22 + 2 D_3 p3 / (p3-p1) ] ds

    The slice at x^3 = 0 defaults to 1.  Positive c22 is required.  Returns
    (c11, seam_jump), seam_jump the loop-integral mismatch of log c11 across
    the x^3 seam (None on a localized grid).
    """
    grid = p.grid
    _check_gaps(p)
    (c22,) = _positive_diagonal(grid, c22=c22)
    lc0 = np.log(_slice_on(grid, c11_slice, "c11_slice", default=1.0))
    if not np.all(np.isfinite(lc0)):
        raise ConfigError("c11_slice must be positive everywhere")
    dl22 = fd_diff(np.log(c22), 3, grid)
    dp3 = fd_diff(p.p3, 3, grid)
    integrand = ((p.p3 - p.p2) * dl22 + 2.0 * dp3) / (p.p3 - p.p1)
    return np.exp(lc0 - _cumint_x3(integrand, grid)), _seam_jump(integrand, grid)


def _kappa_transport(p, c11, c22, c33, kappa_slice, slice_name, rhs):
    """Integrating-factor solve shared by the kappa transports.

    kappa = [mu(0) kappa(0) + int_0^{x^3} mu * rhs] / mu with mu = sqrt(V),
    V = c11 c22 c33, and the right side rhs(log c11, log c22, log c33, log V).
    Returns kappa and its seam jump, normalized by mu at the slice.
    """
    grid = p.grid
    _check_gaps(p)
    logs = [np.log(c) for c in _positive_diagonal(grid, c11=c11, c22=c22, c33=c33)]
    kap0 = _slice_on(grid, kappa_slice, slice_name, default=0.0)
    log_v = logs[0] + logs[1] + logs[2]
    mu = np.exp(0.5 * log_v)
    integrand = mu * rhs(*logs, log_v)
    kappa = (mu[:, :, :1] * kap0 + _cumint_x3(integrand, grid)) / mu
    return kappa, _seam_jump(integrand, grid, mu)


def solve_kappa23(p, c11, c22, c33, kappa23_slice=None):
    """Integrating-factor transport for kappa_2^3 along x^3.

      D_3 kappa_2^3 + (1/2)(D_3 log V) kappa_2^3
        = (1/2)(p2-p1) D_2 log c11 + (1/2)(p2-p3) D_2 log c33 + D_2 p2

    solved as kappa = [mu(0) kappa(0) + int_0^{x^3} mu * rhs] / mu with
    mu = sqrt(V), V = c11 c22 c33.  Slice defaults to 0.  Returns
    (kappa_2^3, seam_jump) as solve_c11 does.
    """
    grid = p.grid

    def rhs(log_c11, log_c22, log_c33, log_v):
        return (
            0.5 * (p.p2 - p.p1) * fd_diff(log_c11, 2, grid)
            + 0.5 * (p.p2 - p.p3) * fd_diff(log_c33, 2, grid)
            + fd_diff(p.p2, 2, grid)
        )

    return _kappa_transport(p, c11, c22, c33, kappa23_slice, "kappa23_slice", rhs)


def solve_kappa13(p, c11, c22, c33, kappa12, kappa13_slice=None):
    """Integrating-factor transport for kappa_1^3 along x^3.

      D_3 kappa_1^3 + (1/2)(D_3 log V) kappa_1^3
        = (1/2) [ (p1-p2) D_1 log c22 + (p1-p3) D_1 log c33 + 2 D_1 p1
                  - 2 D_2 kappa_1^2 - kappa_1^2 D_2 log V ]

    with the same integrating factor mu = sqrt(V) as the kappa_2^3 solve.
    Returns (kappa_1^3, seam_jump) as solve_c11 does.
    """
    grid = p.grid
    kappa12 = _values_on(grid, kappa12, "kappa12")

    def rhs(log_c11, log_c22, log_c33, log_v):
        return 0.5 * (
            (p.p1 - p.p2) * fd_diff(log_c22, 1, grid)
            + (p.p1 - p.p3) * fd_diff(log_c33, 1, grid)
            + 2.0 * fd_diff(p.p1, 1, grid)
            - 2.0 * fd_diff(kappa12, 2, grid)
            - kappa12 * fd_diff(log_v, 2, grid)
        )

    return _kappa_transport(p, c11, c22, c33, kappa13_slice, "kappa13_slice", rhs)


def assemble_dataset(
    p,
    c22,
    c33,
    kappa12=0.0,
    c11_slice=None,
    kappa23_slice=None,
    kappa13_slice=None,
):
    """Full data set from the free inputs of the constraint existence argument.

    Free 3-variable inputs: c22 > 0, c33 > 0, kappa12 (equivalently c12).
    Free 2-variable slices at x^3 = 0: c11 (default 1), kappa23 (default 0),
    kappa13 (default 0).  The remaining fields are determined by the three
    x^3 transports, then the off-diagonal c entries are recovered from the
    kappa formulas.  On periodic grids a SeamReport records the loop-integral
    mismatch of each transport across the x^3 seam.
    """
    # the transport intermediates die with the helper's frame, before f, h
    # and the kappa fields are built
    c, seam = _transported_metric(p, c22, c33, kappa12, c11_slice, kappa23_slice, kappa13_slice)
    return AsymptoticDataSet(p.grid, p, c, seam=seam)


def _transported_metric(p, c22, c33, kappa12, c11_slice, kappa23_slice, kappa13_slice):
    """(c, seam) of assemble_dataset."""
    grid = p.grid
    c22 = _values_on(grid, c22, "c22")
    c33 = _values_on(grid, c33, "c33")
    kappa12 = _values_on(grid, kappa12, "kappa12")

    c11, c11_jump = solve_c11(p, c22, c11_slice)
    k23, k23_jump = solve_kappa23(p, c11, c22, c33, kappa23_slice)
    k13, k13_jump = solve_kappa13(p, c11, c22, c33, kappa12, kappa13_slice)

    c12 = kappa12 * c22 / (p.p1 - p.p2)
    c23 = k23 * c33 / (p.p2 - p.p3)
    c13 = (k13 - (p.p2 - p.p1) * c12 * c23 / (c22 * c33)) * c33 / (p.p1 - p.p3)

    c = np.empty((3, 3) + grid.shape)
    c[0, 0], c[1, 1], c[2, 2] = c11, c22, c33
    c[0, 1] = c[1, 0] = c12
    c[1, 2] = c[2, 1] = c23
    c[0, 2] = c[2, 0] = c13

    seam = None if c11_jump is None else SeamReport(c11_jump, k23_jump, k13_jump)
    return c, seam


# ---------------------------------------------------------------------------
# constraint residuals
# ---------------------------------------------------------------------------


def momentum_residual(data, i):
    """Metric-form differential constraint residual in direction x^i (1-based).

    Vanishes (to quadrature/FD error) exactly when the data satisfy the
    differential constraint; returned as a ScalarField.
    """
    if i not in (1, 2, 3):
        raise ConfigError(f"direction must be 1..3, got {i}")
    grid = data.grid
    ii = i - 1
    p = (data.p.p1, data.p.p2, data.p.p3)
    # the stored kappa_i^l, l > i; kappa_i^i = -p_i
    upper = {(0, 1): data.kappa12, (1, 2): data.kappa23, (0, 2): data.kappa13}
    log_v = np.log(data.c[0, 0]) + np.log(data.c[1, 1]) + np.log(data.c[2, 2])

    res = np.zeros(grid.shape)
    for l in range(3):
        if l != ii:
            dlog = fd_diff(np.log(data.c[l, l]), i, grid)
            res += dlog * (p[l] - p[ii])
        if l == ii:
            res += 2.0 * fd_diff(-p[ii], i, grid)
        if l > ii:
            res += 2.0 * fd_diff(upper[ii, l], l + 1, grid)
            res += fd_diff(log_v, l + 1, grid) * upper[ii, l]
    return ScalarField(grid, res)


def frame_momentum_residual(data, big_i):
    """Frame-form differential constraint residual for frame row I (1-based).

    frame_I = E_I p_I + sum_J (p_J - p_I) E_I log f_JJ
              - sum_{J>=I} sum_{I<=a<=J} (p_J - p_I) h_aJ E_J f_Ia

    with E_I = sum_{a>=I} f_Ia D_a.  Computed from the stored f, h blocks
    only; the metric-form residual never enters.
    """
    if big_i not in (1, 2, 3):
        raise ConfigError(f"frame row must be 1..3, got {big_i}")
    grid = data.grid
    bi = big_i - 1
    p = (data.p.p1, data.p.p2, data.p.p3)
    f, h = data.f, data.h

    def ee(row, arr):
        out = np.zeros(grid.shape)
        for a in range(row, 3):
            out += f[row, a] * fd_diff(arr, a + 1, grid)
        return out

    res = ee(bi, p[bi])
    for j in range(3):
        if j == bi:
            continue
        res += (p[j] - p[bi]) * ee(bi, np.log(f[j, j]))
    for j in range(bi + 1, 3):
        for a in range(bi, j + 1):
            res -= (p[j] - p[bi]) * h[a, j] * ee(j, f[bi, a])
    return ScalarField(grid, res)
