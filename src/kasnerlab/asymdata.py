"""Asymptotic data on the singularity.

Builds and validates the data that parametrize a Kasner-like singularity:
position-dependent exponents p_i and leading metric coefficients c_ij.  A
data set stores p and c only.  The upper-triangular frame matrix f_Ia, the
coframe h = f^{-1} and the kappa fields that encode the off-diagonal
momentum content are closed forms of (p, c), formed where they are read
(frame_matrix_from_metric, _FrameSlots, _coframe_entry, _kappa_entry,
triangular_matrix) and never stored.  The differential constraint is
enforced by integrating transport equations along x^3 lines; the free
inputs are three 3-variable
functions (c22, c33, kappa_1^2) and three 2-variable slices at x^3 = 0
(c11, kappa_2^3, kappa_1^3), matching the degrees-of-freedom count of the
underlying existence argument.

Conventions
-----------
The symmetric c is stored packed, each independent entry once: an ndarray
of shape (6,) + grid.shape whose slot s holds entry SLOTS[s] = (i, j),
i <= j, 0-based, in the order 00, 11, 22, 01, 12, 02 (so slot i < 3 is the
diagonal entry ii); slot s of the upper-triangular f and h, wherever they
are formed, is entry SLOTS[s] too.  The mirrored entries of c are never
formed, and the zero lower entries of f and h only by triangular_matrix,
for a reader that needs the whole (3, 3) matrix (level 0 of the tower).
Public operations that take a direction use 1-based labels i, I in {1,2,3}
to match the coordinate names x^1, x^2, x^3.  Every 3-variable input (u,
the p_i, c22, c33, kappa_1^2) is a scalar, constant over the grid, or an
array of grid.shape; every slice is a scalar or an (n, n) array.  A
rank-0 TensorField is only what the residuals return.

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

from .errors import ConfigError, DegenerateExponentsError
from .grids import PERIODIC, TensorField, fd_diff

ALGEBRAIC_TOL = 1e-12
DEGENERACY_FLOOR = 1e-8
DATASET_REL_TOL = 1e-10


def _values_on(grid, x, name):
    """Normalize a scalar or a grid-shaped array to a grid-shaped array."""
    if x is None:
        raise ConfigError(f"{name} is required")
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.shape, float(arr))
    if arr.shape != grid.shape:
        raise ConfigError(f"{name} has shape {arr.shape}, expected {grid.shape}")
    return arr


def _slice_on(grid, x, name):
    """Normalize a finite 2-variable slice prescribed at x^3 = 0 to shape
    (n, n, 1); None reads as NaN and is rejected."""
    arr = np.asarray(x, dtype=float)
    n = grid.n_pts
    if arr.shape not in ((), (n, n)):
        raise ConfigError(f"{name} must be scalar or shape ({n}, {n}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be finite")
    return np.broadcast_to(arr, (n, n))[:, :, None].copy()


class KasnerExponents:
    """Position-dependent exponent triple p1 < p2 < p3 with both sum relations.

    Stores the margin eps = min over the grid of min(1 - p3, p3 - p2); every
    decay estimate downstream is phrased in terms of eps, and the data set is
    rejected when either gap closes to within DEGENERACY_FLOOR.  This is the
    one gap check: the transport solves divide by p3 - p1, which exceeds
    p3 - p2 since p1 < p2.
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
        # NaN-safe: a NaN error must fail here, not pass on to the ordering
        if not (err1 <= ALGEBRAIC_TOL and err2 <= ALGEBRAIC_TOL):
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


def exponents_from_u(grid, u):
    """Exponent triple from the one-parameter pointwise solution of both relations.

    p1 = -u/d, p2 = (1+u)/d, p3 = u(1+u)/d with d = 1 + u + u^2 satisfies
    p1 + p2 + p3 = 1 and p1^2 + p2^2 + p3^2 = 1 identically, and finite
    u > 1 guarantees strict ordering p1 < 0 < p2 < p3.
    """
    uv = _values_on(grid, u, "u")
    # NaN-safe: a NaN fails both comparisons
    if not (np.all(uv > 1.0) and np.all(uv < np.inf)):
        bad = tuple(int(v) for v in np.argwhere(~np.isfinite(uv) | (uv <= 1.0))[0])
        raise DegenerateExponentsError(
            f"u must be finite and exceed 1 everywhere (ordering degenerates at "
            f"u = 1); u = {uv[bad]:.6g} at grid index {bad}"
        )
    d = 1.0 + uv + uv * uv
    p1 = -uv / d
    p2 = (1.0 + uv) / d
    p3 = uv * (1.0 + uv) / d
    return KasnerExponents(grid, p1, p2, p3)


# ---------------------------------------------------------------------------
# frame / coframe / metric coefficient algebra (pointwise, closed-form)
# ---------------------------------------------------------------------------


# the entries (i, j), i <= j, that fix a symmetric or an upper-triangular
# 3x3 matrix: slot s of a packed c, f or h holds entry SLOTS[s]
SLOTS = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))


def frame_matrix_from_metric(c):
    """Upper-triangular frame coefficients f_Ia from the symmetric c, both
    packed in SLOTS order: the diagonal f_ii = c_ii^(-1/2), then each
    off-diagonal slot by _frame_entry.  A data set does not store f; its
    readers form it from c, whole (zeroth_iterate, IterateSet.coframe_at,
    the data set's round-trip check) or slot by slot (_FrameSlots)."""
    f = np.empty_like(c)
    np.power(c[:3], -0.5, out=f[:3])
    for s in range(3, len(SLOTS)):
        f[s] = _frame_entry(c, f, s)
    return f


def _frame_entry(c, diag, s):
    """Off-diagonal slot s >= 3 of f from the packed c and the diagonal
    slots diag[i] = c_ii^(-1/2),

      f_12 = -f_11 c12 / c22,  f_23 = -f_22 c23 / c33,
      f_13 = f_11 (c12 c23 / (c22 c33) - c13 / c33),

    as a new field; in-place steps keep at most one further field live.
    They take the operations of these expressions in their order (the two
    factors of a product commute in floating point), so every frame reader
    gets the same bits."""
    if s < 5:
        i = s - 3
        out = np.negative(diag[i])
        out *= c[s]
        out /= c[i + 1]
        return out
    out = c[3] * c[4]
    tmp = c[1] * c[2]
    out /= tmp
    np.divide(c[5], c[2], out=tmp)
    out -= tmp
    out *= diag[0]
    return out


class _FrameSlots:
    """The packed f of a packed c, read slot by slot as f[s]: the diagonal
    c_ii^(-1/2), where the cost of forming f lies, is formed once and held;
    each off-diagonal slot is formed anew by _frame_entry on each read, so
    it lives only as long as its reader holds it."""

    def __init__(self, c):
        self.c = c
        self.diag = np.power(c[:3], -0.5)

    def __getitem__(self, s):
        return self.diag[s] if s < 3 else _frame_entry(self.c, self.diag, s)


def _metric_entry(f, s):
    """Slot s of c from the packed frame coefficients: the closed-form
    inverse of frame_matrix_from_metric, one slot at a time,

      c_ii = f_ii^-2,  c_i(i+1) = -f_i(i+1) / (f_ii f_(i+1)(i+1)^2),
      c_13 = (f_12 f_23 / f_22 - f_13) / (f_11 f_33^2),

    as a new field; in-place steps keep at most one further field live."""
    i, j = SLOTS[s]
    if i == j:
        return f[s] ** -2.0
    if j == i + 1:
        out = np.negative(f[s])
        den = f[j] ** 2
        den *= f[i]
    else:
        out = f[3] * f[4]
        out /= f[1]
        out -= f[5]
        den = f[2] ** 2
        den *= f[0]
    out /= den
    return out


def _coframe_entry(f, s):
    """Slot s of h = f^{-1} from the packed frame coefficients f (an array,
    or _FrameSlots), in closed form, one slot at a time."""
    i, j = SLOTS[s]
    if i == j:
        return 1.0 / f[s]
    if j == i + 1:
        return -f[s] / (f[i] * f[j])
    return (f[3] * f[4] / f[1] - f[5]) / (f[0] * f[2])


def triangular_matrix(f, inverse=False):
    """The (3, 3) + grid matrix of the packed upper-triangular f, or with
    inverse=True of h = f^{-1}, each slot of h formed by _coframe_entry as
    it is placed, so one slot of h is live at a time.  The lower entries,
    and slots that vanish identically (some formed as -0.0), are +0.0."""
    out = np.zeros((3, 3) + f.shape[1:])
    for s, (i, j) in enumerate(SLOTS):
        slot = _coframe_entry(f, s) if inverse else f[s]
        if slot.any():
            out[i, j] = slot
    return out


def _kappa_entry(p, c, i, l):
    """The off-diagonal kappa_i^l, i < l (0-based), from the exponent fields
    p = (p1, p2, p3) and the packed c."""
    if l == i + 1:
        return (p[i] - p[l]) * c[SLOTS.index((i, l))] / c[l]
    return (p[1] - p[0]) * c[3] * c[4] / (c[1] * c[2]) + (p[0] - p[2]) * c[5] / c[2]


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
    # map drops each field once its max is taken, before the next is formed
    return float(np.max(list(map(lambda x: np.max(np.abs(x)), fields))))


class AsymptoticDataSet:
    """Exponents plus metric coefficients forming data on the singularity.

    Holds grid (p's grid), p, c and seam, and nothing else: 9 grid fields.
    c is packed, shape (6,) + grid.shape in SLOTS order, and construction
    takes it in that layout only.  The frame f, the coframe h and the kappa
    fields are closed forms of (p, c) and are not stored: readers form them
    where they read them, by frame_matrix_from_metric (or _FrameSlots),
    _coframe_entry and _kappa_entry, so the pointwise coefficient identities
    hold by construction.  Validation checks positivity, finiteness, and the
    c -> f -> c round trip to DATASET_REL_TOL.  The
    layout cannot hold an asymmetric c, so no symmetry check exists.  The
    momentum residuals are NOT checked here -- data violating the
    differential constraint are legitimate objects (that is the point of the
    constraint diagnostics).
    """

    def __init__(self, p, c, seam=None):
        grid = p.grid
        c = np.asarray(c, dtype=float)
        if c.shape != (6,) + grid.shape:
            raise ConfigError(f"c must have the packed shape (6,) + grid.shape, got {c.shape}")
        self.grid = grid
        self.p = p
        self.c = c
        self.seam = seam
        self._validate_round_trip(self._validate_metric())

    def _validate_metric(self):
        """Finite, positive-diagonal c; returns max|c|."""
        c = self.c
        if not all(np.isfinite(x).all() for x in c):
            raise ConfigError("c contains non-finite entries")
        for i in range(3):
            if np.any(c[i] <= 0.0):
                bad = np.unravel_index(int(np.argmin(c[i])), self.grid.shape)
                raise ConfigError(
                    f"c{i + 1}{i + 1} must be positive; min = "
                    f"{float(np.min(c[i])):.3e} at grid index {tuple(int(v) for v in bad)}"
                )
        return _max_abs(c)

    def _validate_round_trip(self, scale):
        """max|c(f) - c| within DATASET_REL_TOL of scale, with f formed from c
        by frame_matrix_from_metric, held for this check only, and c(f) the
        metric that _metric_entry rebuilds from f, one slot at a time."""
        f = frame_matrix_from_metric(self.c)
        err = _max_abs(_metric_entry(f, s) - self.c[s] for s in range(len(SLOTS)))
        if not err <= DATASET_REL_TOL * scale:
            raise ConfigError(
                f"metric/frame round trip failed: max error {err:.3e} vs scale {scale:.3e}"
            )

    def __repr__(self):
        return f"AsymptoticDataSet(grid={self.grid!r}, eps={self.p.eps:.6g}, seam={self.seam!r})"


# ---------------------------------------------------------------------------
# transport solves along x^3
# ---------------------------------------------------------------------------


def _cumint_x3(integrand, grid):
    """Cumulative integral from x^3 = 0 along the last axis: composite
    Simpson on equal intervals h, with 0 at x^3 = 0.

    The integral over [x_k, x_{k+1}] is a half-interval Simpson piece of the
    parabola through (f1, f2, f3) = f(x_k), f(x_{k+1}), f(x_{k+2}):

      first half   h/3 (5 f1/4 + 2 f2 - f3/4)   over [x_k, x_{k+1}]
      second half  h/3 (5 f3/4 + 2 f2 - f1/4)   over [x_{k+1}, x_{k+2}]

    for even k; the last interval is the second half at k = n - 3.  The
    running sum of these pieces is the result.  This is scipy 1.17's
    cumulative_simpson(integrand, dx=h, axis=-1, initial=0.0) on the same
    operands in the same order; tests/test_asymdata.py pins the two bit for
    bit.  The grid has n >= 8 points, so every interval has a parabola.
    """
    third = grid.h / 3
    f1, f2, f3 = integrand[..., :-2:2], integrand[..., 1:-1:2], integrand[..., 2::2]
    out = np.empty(integrand.shape)
    out[..., 0] = 0.0
    out[..., 1:-1:2] = third * (5 * f1 / 4 + 2 * f2 - f3 / 4)
    out[..., 2::2] = third * (5 * f3 / 4 + 2 * f2 - f1 / 4)
    f1, f2, f3 = integrand[..., -3], integrand[..., -2], integrand[..., -1]
    out[..., -1] = third * (5 * f3 / 4 + 2 * f2 - f1 / 4)
    return np.cumsum(out, axis=-1, out=out)


def _positive_diagonal(grid, **fields):
    """The named diagonal metric entries as grid arrays, each checked finite
    and positive."""
    arrays = []
    for name, x in fields.items():
        arr = _values_on(grid, x, name)
        # NaN-safe: a NaN fails both comparisons
        if not (np.all(arr > 0.0) and np.all(arr < np.inf)):
            raise ConfigError(f"{name} must be finite and positive everywhere")
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


def solve_c11(p, c22, c11_slice=1.0):
    """Integrate the x^3-direction constraint for c11.

    log c11(x) = log c11(x^1, x^2, 0)
                 - int_0^{x^3} [ (p3-p2)/(p3-p1) D_3 log c22 + 2 D_3 p3 / (p3-p1) ] ds

    Finite positive c22 and a positive slice at x^3 = 0 are required.  Returns
    (c11, seam_jump), seam_jump the loop-integral mismatch of log c11 across
    the x^3 seam (None on a localized grid).
    """
    grid = p.grid
    (c22,) = _positive_diagonal(grid, c22=c22)
    c11_0 = _slice_on(grid, c11_slice, "c11_slice")
    if not np.all(c11_0 > 0.0):
        raise ConfigError("c11_slice must be positive everywhere")
    lc0 = np.log(c11_0)
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
    logs = [np.log(c) for c in _positive_diagonal(grid, c11=c11, c22=c22, c33=c33)]
    kap0 = _slice_on(grid, kappa_slice, slice_name)
    log_v = logs[0] + logs[1] + logs[2]
    mu = np.exp(0.5 * log_v)
    integrand = mu * rhs(*logs, log_v)
    kappa = (mu[:, :, :1] * kap0 + _cumint_x3(integrand, grid)) / mu
    return kappa, _seam_jump(integrand, grid, mu)


def solve_kappa23(p, c11, c22, c33, kappa23_slice=0.0):
    """Integrating-factor transport for kappa_2^3 along x^3.

      D_3 kappa_2^3 + (1/2)(D_3 log V) kappa_2^3
        = (1/2)(p2-p1) D_2 log c11 + (1/2)(p2-p3) D_2 log c33 + D_2 p2

    solved as kappa = [mu(0) kappa(0) + int_0^{x^3} mu * rhs] / mu with
    mu = sqrt(V), V = c11 c22 c33.  Returns (kappa_2^3, seam_jump) as
    solve_c11 does.
    """
    grid = p.grid

    def rhs(log_c11, log_c22, log_c33, log_v):
        return (
            0.5 * (p.p2 - p.p1) * fd_diff(log_c11, 2, grid)
            + 0.5 * (p.p2 - p.p3) * fd_diff(log_c33, 2, grid)
            + fd_diff(p.p2, 2, grid)
        )

    return _kappa_transport(p, c11, c22, c33, kappa23_slice, "kappa23_slice", rhs)


def solve_kappa13(p, c11, c22, c33, kappa12, kappa13_slice=0.0):
    """Integrating-factor transport for kappa_1^3 along x^3.

      D_3 kappa_1^3 + (1/2)(D_3 log V) kappa_1^3
        = (1/2) [ (p1-p2) D_1 log c22 + (p1-p3) D_1 log c33 + 2 D_1 p1
                  - 2 D_2 kappa_1^2 - kappa_1^2 D_2 log V ]

    with the same integrating factor mu = sqrt(V) as the kappa_2^3 solve.
    Returns (kappa_1^3, seam_jump) as solve_c11 does.
    """
    grid = p.grid
    kappa12 = _values_on(grid, kappa12, "kappa12")
    if not np.all(np.isfinite(kappa12)):
        raise ConfigError("kappa12 must be finite")

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
    c11_slice=1.0,
    kappa23_slice=0.0,
    kappa13_slice=0.0,
):
    """Full data set from the free inputs of the constraint existence argument.

    Free 3-variable inputs: c22 > 0, c33 > 0, kappa12 (equivalently c12).
    Free 2-variable slices at x^3 = 0: c11 > 0, kappa23, kappa13.  The
    remaining fields are determined by the three x^3 transports, then the
    off-diagonal c entries are recovered from the kappa formulas.  c is
    assembled packed, its 6 slots in SLOTS order (c11, c22, c33, c12, c23,
    c13).  On periodic grids a SeamReport records the loop-integral mismatch
    of each transport across the x^3 seam.
    """
    # the transport intermediates die with the helper's frame, before f is
    # built
    c, seam = _transported_metric(p, c22, c33, kappa12, c11_slice, kappa23_slice, kappa13_slice)
    return AsymptoticDataSet(p, c, seam=seam)


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

    c = np.stack([c11, c22, c33, c12, c23, c13])

    seam = None if c11_jump is None else SeamReport(c11_jump, k23_jump, k13_jump)
    return c, seam


# ---------------------------------------------------------------------------
# constraint residuals
# ---------------------------------------------------------------------------


def momentum_residual(data, i):
    """Metric-form differential constraint residual in direction x^i (1-based).

    Vanishes (to quadrature/FD error) exactly when the data satisfy the
    differential constraint; returned as a rank-0 TensorField.
    """
    if i not in (1, 2, 3):
        raise ConfigError(f"direction must be 1..3, got {i}")
    grid = data.grid
    ii = i - 1
    p = (data.p.p1, data.p.p2, data.p.p3)
    c = data.c
    # only the terms l > i read log V, and x^3 has none
    log_v = np.log(c[0]) + np.log(c[1]) + np.log(c[2]) if ii < 2 else None

    res = np.zeros(grid.shape)
    for l in range(3):
        if l != ii:
            dlog = fd_diff(np.log(c[l]), i, grid)
            res += dlog * (p[l] - p[ii])
        if l == ii:
            res += 2.0 * fd_diff(-p[ii], i, grid)
        if l > ii:
            # kappa_i^l, formed here and freed before the next one is
            # formed; kappa_i^i = -p_i
            kappa = _kappa_entry(p, c, ii, l)
            res += 2.0 * fd_diff(kappa, l + 1, grid)
            res += fd_diff(log_v, l + 1, grid) * kappa
            del kappa
    return TensorField(grid, res)


def frame_momentum_residual(data, big_i):
    """Frame-form differential constraint residual for frame row I (1-based).

    frame_I = E_I p_I + sum_J (p_J - p_I) E_I log f_JJ
              - sum_{J>=I} sum_{I<=a<=J} (p_J - p_I) h_aJ E_J f_Ia

    with E_I = sum_{a>=I} f_Ia D_a.  Computed from c through _FrameSlots:
    the diagonal f slots are formed once per call, each off-diagonal f slot
    (entry (I, a), I < a, at slot SLOTS.index((I, a))) and each h slot, by
    _coframe_entry, where it is read.  The metric-form residual never
    enters.  Each product is taken in place on a fresh field, its factors
    in the formula's order, so the result is the same bits as from a whole
    f, and fewer than 9 grid fields are live beyond it.
    """
    if big_i not in (1, 2, 3):
        raise ConfigError(f"frame row must be 1..3, got {big_i}")
    grid = data.grid
    bi = big_i - 1
    p = (data.p.p1, data.p.p2, data.p.p3)
    f = _FrameSlots(data.c)

    def scaled(term, weight):
        term *= weight
        return term

    # each term is a fresh field, scaled in place and added to its sum
    # before the next one is formed
    def ee(row, arr):
        out = np.zeros(grid.shape)
        for a in range(row, 3):
            out += scaled(fd_diff(arr, a + 1, grid), f[SLOTS.index((row, a))])
        return out

    res = ee(bi, p[bi])
    for j in range(3):
        if j != bi:
            res += scaled(ee(bi, np.log(f[j])), p[j] - p[bi])
    for j in range(bi + 1, 3):
        for a in range(bi, j + 1):
            # E_J f_Ia, then its weight (p_J - p_I) h_aJ with h_aJ formed
            # here, so that the weight is not held while E_J runs
            res -= scaled(
                ee(j, f[SLOTS.index((bi, a))]),
                scaled(_coframe_entry(f, SLOTS.index((a, j))), p[j] - p[bi]),
            )
    return TensorField(grid, res)
