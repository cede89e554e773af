"""Slice geometry in an orthonormal spatial frame.

A frame field e has components e[I, a] (frame index first, then the
coordinate axis, then the grid axes): e_I = sum_a e[I, a] d/dx^(a+1).  The
coframe omega is its pointwise matrix inverse, so the slice metric is
g_ab = omega[a, C] omega[b, C].  Connection coefficients gamma[I, J, B] are
antisymmetric in the last two slots by construction; curvature and the
constraint residuals below never read them from the evolution right side,
so they stay usable as independent health checks of a run.

Time derivatives are taken from stored slices: series are sampled either
uniformly in t or uniformly in log t, and the stencils are applied in the
matching variable.
"""

import numpy as np

from .errors import ConfigError, SingularFrameError
from .grids import SYM_SYMMETRIC, ScalarField, TensorField, fd_diff, fd_time_diff

IDENTITY_TOL = 1e-10
SINGULAR_FLOOR = 1e-14


def _grid_fd(grid, values, axis, order):
    return fd_diff(values, axis, order, grid.h, grid.mode)


def coframe_from_frame(e):
    """Pointwise inverse of the frame matrix via the adjugate.

    Closed-form cofactors keep the cost at a handful of fused array ops and
    make the (co)frame relation exact on diagonal input.
    """
    e = np.asarray(e, dtype=float)
    a00, a01, a02 = e[0, 0], e[0, 1], e[0, 2]
    a10, a11, a12 = e[1, 0], e[1, 1], e[1, 2]
    a20, a21, a22 = e[2, 0], e[2, 1], e[2, 2]
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    # Hadamard bound as the natural determinant scale: rows of a frame near
    # the singularity carry wildly different powers of t, so max|e|^3 would
    # overestimate the scale by many orders and flag healthy frames
    hadamard = np.prod(np.max(np.abs(e), axis=1), axis=0)
    floor = SINGULAR_FLOOR * np.maximum(hadamard, SINGULAR_FLOOR)
    bad = np.abs(det) < floor
    if np.any(bad):
        ratio = np.abs(det) / np.maximum(floor, SINGULAR_FLOOR**2)
        loc = np.unravel_index(np.argmin(ratio), det.shape)
        raise SingularFrameError(
            f"frame determinant {det[loc]:.3e} below floor {floor[loc]:.3e} "
            f"at grid point {tuple(int(i) for i in loc)}"
        )
    omega = np.empty_like(e)
    omega[0, 0] = c00
    omega[1, 0] = c01
    omega[2, 0] = c02
    omega[0, 1] = a02 * a21 - a01 * a22
    omega[1, 1] = a00 * a22 - a02 * a20
    omega[2, 1] = a01 * a20 - a00 * a21
    omega[0, 2] = a01 * a12 - a02 * a11
    omega[1, 2] = a02 * a10 - a00 * a12
    omega[2, 2] = a00 * a11 - a01 * a10
    omega /= det
    return omega


def metric_from_coframe(omega):
    """Slice metric g_ab = omega[a, C] omega[b, C]; bitwise symmetric."""
    omega = np.asarray(omega, dtype=float)
    g = np.einsum("ac...,bc...->ab...", omega, omega)
    m1 = g[0, 0]
    m2 = g[0, 0] * g[1, 1] - g[0, 1] ** 2
    m3 = (
        g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1])
        - g[0, 1] * (g[1, 0] * g[2, 2] - g[1, 2] * g[2, 0])
        + g[0, 2] * (g[1, 0] * g[2, 1] - g[1, 1] * g[2, 0])
    )
    if np.min(m1) <= 0 or np.min(m2) <= 0 or np.min(m3) <= 0:
        raise ConfigError("coframe produced a non positive definite metric")
    return g


def _frame_commutators(e, grid, order):
    """comm[I, J, a] = e_I(e[J, a]) - e_J(e[I, a]), exactly antisymmetric."""
    de = np.stack([_grid_fd(grid, e, ax, order) for ax in (1, 2, 3)])
    ede = np.einsum("ib...,bja...->ija...", e, de)
    return ede - np.swapaxes(ede, 0, 1)


def gamma_from_frame(e, omega, grid, order=4):
    """Levi-Civita connection coefficients of the frame, by antisymmetrized
    commutators:

      gamma[I, J, B] = 1/2 ( w[I, J, B] - w[J, B, I] + w[B, I, J] )

    with w[I, J, X] = omega[a, X] comm[I, J, a].  The final explicit
    antisymmetrization makes the (J, B) antisymmetry exact in floating point
    (x - y and y - x round to exact negatives).
    """
    comm = _frame_commutators(e, grid, order)
    w = np.einsum("ija...,ax...->ijx...", comm, omega)
    raw = w - np.einsum("jbi...->ijb...", w) + np.einsum("bij...->ijb...", w)
    return 0.25 * (raw - np.swapaxes(raw, 1, 2))


# the independent (J < C) slots of gamma[I, J, C]
_PAIRS = ((0, 1), (0, 2), (1, 2))


def spatial_ricci(e, omega, gamma, grid, order=4):
    """Slice Ricci in frame components:

      R[I, J] = e_C gamma[I, J, C] - e_I (sum_C gamma[C, J, C])
                - gamma[C, I, D] gamma[D, J, C] - gamma[I, J, D] sum_C gamma[C, C, D]

    Not symmetrized: an evolved connection need not be Levi-Civita, and the
    antisymmetric part is itself a useful monitor.

    Only the J < C components of gamma are differentiated; the mirrored
    derivatives are their negatives and the diagonal ones zero.  That reads
    gamma as exactly antisymmetric in its last two slots, which
    gamma_from_frame produces and FrameState enforces (to rounding).
    """
    del omega  # part of the operation signature; the formula needs only e
    upper = np.stack([gamma[:, j, c] for j, c in _PAIRS], axis=1)
    dgam = np.empty((3,) + gamma.shape)
    for j in range(3):
        dgam[:, :, j, j] = 0.0
    for b, ax in enumerate((1, 2, 3)):
        d = _grid_fd(grid, upper, ax, order)
        for p, (j, c) in enumerate(_PAIRS):
            dgam[b, :, j, c] = d[:, p]
            np.negative(d[:, p], out=dgam[b, :, c, j])
    r = np.einsum("cb...,bijc...->ij...", e, dgam)
    trace13 = np.einsum("cjc...->j...", gamma)
    dtr = np.stack([_grid_fd(grid, trace13, ax, order) for ax in (1, 2, 3)])
    r -= np.einsum("ib...,bj...->ij...", e, dtr)
    r -= np.einsum("cid...,djc...->ij...", gamma, gamma)
    r -= np.einsum("ijd...,d...->ij...", gamma, np.einsum("ccd...->d...", gamma))
    return r


def _uniform_spacing(x, what):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ConfigError(f"{what} must be a 1-d array of at least 2 values")
    steps = np.diff(x)
    if np.max(np.abs(steps - steps[0])) <= 1e-9 * abs(steps[0]):
        return float(steps[0])
    return None


def second_fundamental_from_frame(e_series, omega_series, t_nodes, order=4):
    """k_tilde[r, I, J] = omega[r, a, J] (d_t e)[r, I, a] from stored slices.

    t_nodes must be uniform in t or uniform in log t; the time stencil runs
    in the uniform variable (one-sided rows at the ends).  This never calls
    the evolution right side: the derivative is measured, not assumed.
    """
    e_series = np.asarray(e_series, dtype=float)
    omega_series = np.asarray(omega_series, dtype=float)
    t = np.asarray(t_nodes, dtype=float)
    if np.any(t <= 0):
        raise ConfigError("slice times must be positive")
    if e_series.shape[0] != t.size or omega_series.shape[0] != t.size:
        raise ConfigError("series and t_nodes lengths disagree")
    dt = _uniform_spacing(t, "t_nodes")
    if dt is not None:
        if dt == 0:
            raise ConfigError("time spacing is zero")
        de_dt = fd_time_diff(e_series, dt, order)
    else:
        hs = _uniform_spacing(np.log(t), "t_nodes (in log t)")
        if hs is None or hs == 0:
            raise ConfigError("t_nodes must be uniform in t or in log t")
        shape = (-1,) + (1,) * (e_series.ndim - 1)
        de_dt = fd_time_diff(e_series, hs, order) / t.reshape(shape)
    return np.einsum("maj...,mia...->mij...", omega_series, de_dt)


class FrameState:
    """One time slice of the first-order system: frame, coframe, second
    fundamental form, connection coefficients, and the slice time."""

    def __init__(self, grid, e, omega, k, gamma, t, check=True):
        self.grid = grid
        self.e = np.asarray(e, dtype=float)
        self.omega = np.asarray(omega, dtype=float)
        self.k = np.asarray(k, dtype=float)
        self.gamma = np.asarray(gamma, dtype=float)
        self.t = float(t)
        if check:
            self._validate()

    @classmethod
    def from_frame(cls, grid, e, k, t, order=4):
        omega = coframe_from_frame(e)
        gamma = gamma_from_frame(np.asarray(e, dtype=float), omega, grid, order)
        return cls(grid, e, omega, k, gamma, t)

    def _validate(self):
        shape = (3, 3) + self.grid.shape
        for name, arr in (("e", self.e), ("omega", self.omega), ("k", self.k)):
            if arr.shape != shape:
                raise ConfigError(f"{name} has shape {arr.shape}, expected {shape}")
        if self.gamma.shape != (3, 3, 3) + self.grid.shape:
            raise ConfigError(
                f"gamma has shape {self.gamma.shape}, expected {(3, 3, 3) + self.grid.shape}"
            )
        if not self.t > 0:
            raise ConfigError(f"slice time must be positive, got {self.t}")
        prod = np.einsum("ia...,ac...->ic...", self.e, self.omega)
        prod[0, 0] -= 1.0
        prod[1, 1] -= 1.0
        prod[2, 2] -= 1.0
        worst = np.max(np.abs(prod))
        if worst > IDENTITY_TOL:
            raise ConfigError(f"e*omega deviates from identity by {worst:.3e}")
        ksym = np.max(np.abs(self.k - np.swapaxes(self.k, 0, 1)))
        if ksym > 1e-12 * max(np.max(np.abs(self.k)), 1.0):
            raise ConfigError(f"k is not symmetric (deviation {ksym:.3e})")
        gasym = np.max(np.abs(self.gamma + np.swapaxes(self.gamma, 1, 2)))
        if gasym > 1e-12 * max(np.max(np.abs(self.gamma)), 1.0):
            raise ConfigError(f"gamma not antisymmetric in last two slots ({gasym:.3e})")

    def k_field(self):
        return TensorField(self.grid, self.k, symmetry=SYM_SYMMETRIC)


def hamiltonian_residual(state, order=4):
    """R - |k|^2 + (tr k)^2 on the slice, as a scalar field."""
    r = spatial_ricci(state.e, state.omega, state.gamma, state.grid, order)
    tr_r = np.einsum("ii...->...", r)
    trk = np.einsum("ii...->...", state.k)
    ksq = np.einsum("ij...,ij...->...", state.k, state.k)
    return ScalarField(state.grid, tr_r - ksq + trk**2)


def _momentum_core(e, gamma, k, grid, order):
    dk = np.stack([_grid_fd(grid, k, ax, order) for ax in (1, 2, 3)])
    res = np.einsum("ja...,aij...->i...", e, dk)
    trk = np.einsum("ii...->...", k)
    dtr = np.stack([_grid_fd(grid, trk, ax, order) for ax in (1, 2, 3)])
    res -= np.einsum("ia...,a...->i...", e, dtr)
    res -= np.einsum("jic...,cj...->i...", gamma, k)
    res -= np.einsum("jjc...,ic...->i...", gamma, k)
    return res


def momentum_residual_evolved(state, order=4):
    """Frame divergence constraint e_J k_IJ - e_I tr k minus connection terms,
    evaluated on the slice's own k."""
    res = _momentum_core(state.e, state.gamma, state.k, state.grid, order)
    return TensorField(state.grid, res)


def torsion_residual(state, order=4):
    """C[I, J, B]: frame commutator coefficients minus the antisymmetric part
    of gamma.  Zero to rounding for gamma built by gamma_from_frame; a live
    monitor when gamma is evolved as an independent unknown."""
    comm = _frame_commutators(state.e, state.grid, order)
    c = np.einsum("ija...,ab...->ijb...", comm, state.omega)
    c -= state.gamma - np.swapaxes(state.gamma, 0, 1)
    return TensorField(state.grid, c)


class SpacetimeRicci:
    """Spacetime Ricci components of a stored run segment, per time node.

    r4_ij has shape (m, 3, 3) + grid.shape; r4_00 is (m,) + grid.shape;
    r4_0i is (m, 3) + grid.shape.  k_tilde is the time-FD second fundamental
    form the components were built from.
    """

    def __init__(self, t_nodes, r4_ij, r4_00, r4_0i, k_tilde):
        self.t_nodes = t_nodes
        self.r4_ij = r4_ij
        self.r4_00 = r4_00
        self.r4_0i = r4_0i
        self.k_tilde = k_tilde

    def sup_norms(self):
        """Per-node sup norm over all components, for envelope fits."""
        m = self.t_nodes.size
        stacked = [
            np.abs(self.r4_ij).reshape(m, -1).max(axis=1),
            np.abs(self.r4_00).reshape(m, -1).max(axis=1),
            np.abs(self.r4_0i).reshape(m, -1).max(axis=1),
        ]
        return np.max(stacked, axis=0)


def spacetime_ricci(states, order=4):
    """Ricci of the 4-metric reconstructed from a series of slices.

    Uses the constant-lapse splitting: the slice Ricci plus measured time
    derivatives of the frame,

      r4_ij[r] = R[r] - d_t kt[r] + tr kt[r] * kt[r]
      r4_00[r] = (R - |kt|^2 + (tr kt)^2)[r] - sum_I r4_ij[r, I, I]
      r4_0i[r] = frame divergence constraint of kt[r]

    with kt the time-FD second fundamental form.  Needs at least 3 slices
    (5 for 4th-order interior stencils; the order drops to 2 below that).
    """
    if len(states) < 3:
        raise ConfigError(f"need at least 3 consecutive slices, got {len(states)}")
    grid = states[0].grid
    t = np.array([st.t for st in states])
    e_series = np.stack([st.e for st in states])
    omega_series = np.stack([st.omega for st in states])
    if len(states) < 5:
        order = 2
    kt = second_fundamental_from_frame(e_series, omega_series, t, order)

    dt = _uniform_spacing(t, "t_nodes")
    if dt is not None:
        dkt_dt = fd_time_diff(kt, dt, order)
    else:
        hs = _uniform_spacing(np.log(t), "t_nodes (in log t)")
        dkt_dt = fd_time_diff(kt, hs, order) / t.reshape((-1,) + (1,) * (kt.ndim - 1))

    m = t.size
    r4_ij = np.empty_like(kt)
    r4_00 = np.empty((m,) + grid.shape)
    r4_0i = np.empty((m, 3) + grid.shape)
    for r, st in enumerate(states):
        ricci = spatial_ricci(st.e, st.omega, st.gamma, grid, order)
        trkt = np.einsum("ii...->...", kt[r])
        r4_ij[r] = ricci - dkt_dt[r] + trkt * kt[r]
        ham = (
            np.einsum("ii...->...", ricci)
            - np.einsum("ij...,ij...->...", kt[r], kt[r])
            + trkt**2
        )
        r4_00[r] = ham - np.einsum("ii...->...", r4_ij[r])
        r4_0i[r] = _momentum_core(st.e, st.gamma, kt[r], grid, order)
    return SpacetimeRicci(t, r4_ij, r4_00, r4_0i, kt)
