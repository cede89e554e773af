"""Slice geometry in an orthonormal spatial frame.

A frame field e has components e[I, a] (frame index first, then the
coordinate axis, then the grid axes): e_I = sum_a e[I, a] d/dx^(a+1).  The
coframe omega is its pointwise matrix inverse, so the slice metric is
g_ab = omega[a, C] omega[b, C].  Connection coefficients gamma[I, J, B] are
antisymmetric in the last two slots, so only their 9 slots J < B are stored:
the packed connection g[I, p] = gamma[I, J, B], (J, B) = _PAIRS[p], has
shape (3, 3) + grid, and no other layout exists.  Kernels that need all 27
slots (the quadratic terms of the Ricci and momentum residuals, the torsion)
expand g once per call into a node-sized temporary (_unpack_gamma), with
the mirrored slots exact negations and the diagonal +0.0.  Curvature and
the constraint residuals below never read the connection from the evolution
right side, so they stay usable as independent health checks of a run.

The whole frame Ricci (spatial_ricci) is formed only where all of it is
read: by spacetime_ricci and by the tower's k update.  The Hamiltonian
constraint reads its trace alone, from _scalar_curvature.

Time derivatives of stored slices come from grids.fd_time_diff: the series
are sampled uniformly in log t, as on a LogTimeGrid.
"""

import numpy as np

from .errors import ConfigError, SingularFrameError
from .grids import TensorField, _check_finite, fd_diff, fd_time_diff

IDENTITY_TOL = 1e-10
SINGULAR_FLOOR = 1e-14


def _cofactor(e, i, j):
    """Cofactor of e[j, i], so that inverse[i, j] = _cofactor(e, i, j) / det."""
    j1, j2, i1, i2 = (j + 1) % 3, (j + 2) % 3, (i + 1) % 3, (i + 2) % 3
    return e[j1, i1] * e[j2, i2] - e[j1, i2] * e[j2, i1]


def frame_determinant(e):
    """(det, c) of the frame matrix, c the cofactors of its first row, after
    checking det against the floor; raises SingularFrameError below it."""
    c = [_cofactor(e, i, 0) for i in range(3)]
    det = e[0, 0] * c[0] + e[0, 1] * c[1] + e[0, 2] * c[2]
    # Hadamard bound as the natural determinant scale: rows of a frame near
    # the singularity carry wildly different powers of t, so max|e|^3 would
    # overestimate the scale by many orders and flag healthy frames
    hadamard = np.prod(np.max(np.abs(e), axis=1), axis=0)
    floor = SINGULAR_FLOOR * np.maximum(hadamard, SINGULAR_FLOOR)
    # NaN-safe: a NaN determinant or floor fails the comparison and is bad
    bad = ~(floor <= np.abs(det))
    if np.any(bad):
        ratio = np.abs(det) / np.maximum(floor, SINGULAR_FLOOR**2)
        loc = np.unravel_index(np.argmin(ratio), det.shape)
        raise SingularFrameError(
            f"frame determinant {det[loc]:.3e} below floor {floor[loc]:.3e} "
            f"at grid point {tuple(int(i) for i in loc)}"
        )
    return det, c


def coframe_from_frame(e):
    """Pointwise inverse of the frame matrix via the adjugate.

    Closed-form cofactors keep the cost at a handful of fused array ops and
    make the (co)frame relation exact on diagonal input.
    """
    e = np.asarray(e, dtype=float)
    det, c = frame_determinant(e)
    omega = np.empty_like(e)
    for i, j in np.ndindex(3, 3):
        omega[i, j] = _cofactor(e, i, j) if j else c[i]
    omega /= det
    return omega


# the independent pairs (I, J), I < J, of indices antisymmetric in (I, J)
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _structure_functions(e, omega, grid):
    """W[p, X] = omega[a, X] comm_p^a over the pairs p = (I, J) of _PAIRS, with
    comm_p^a = e_I(e[J, a]) - e_J(e[I, a]): the 9 independent frame commutator
    coefficients w[I, J, X] (w[J, I, X] = -w[I, J, X], w[I, I, X] = 0)."""
    de = [fd_diff(e, ax, grid) for ax in (1, 2, 3)]
    comm = np.empty((3,) + e.shape[1:])
    for p, (i, j) in enumerate(_PAIRS):
        e_i_of_e_j = e[i, 0] * de[0][j] + e[i, 1] * de[1][j] + e[i, 2] * de[2][j]
        e_j_of_e_i = e[j, 0] * de[0][i] + e[j, 1] * de[1][i] + e[j, 2] * de[2][i]
        np.subtract(e_i_of_e_j, e_j_of_e_i, out=comm[p])
    return np.einsum("pa...,ax...->px...", comm, omega)


def gamma_from_frame(e, omega, grid):
    """Levi-Civita connection coefficients of the frame, packed: g[I, p] =
    gamma[I, J, B] with (J, B) = _PAIRS[p], from the commutator coefficients
    w: gamma[I, J, B] = 1/2 (w[I, J, B] - w[J, B, I] + w[B, I, J]).

    Only the 9 independent slots J < B exist, computed from the structure
    functions; where I is J or B the formula reduces to -w[J, B, I].  Shape
    (3, 3) + grid.
    """
    w = _structure_functions(e, omega, grid)

    def w_at(i, j, x):  # i != j
        return w[_PAIRS.index((i, j)), x] if i < j else -w[_PAIRS.index((j, i)), x]

    g = np.empty_like(w)
    for p, (j, b) in enumerate(_PAIRS):
        i = 3 - j - b
        np.negative(w[p, j], out=g[j, p])
        np.negative(w[p, b], out=g[b, p])
        g[i, p] = 0.5 * (w_at(i, j, b) - w[p, i] + w_at(b, i, j))
    return g


def _unpack_gamma(g):
    """The 27 slots gamma[I, J, B] of a packed connection g: the mirrored
    slots are exact negations and the diagonal J = B is +0.0, so the (J, B)
    antisymmetry is exact in floating point."""
    gamma = np.empty((3,) + g.shape)
    gamma[:, range(3), range(3)] = 0.0
    for p, (j, b) in enumerate(_PAIRS):
        gamma[:, j, b] = g[:, p]
        np.negative(g[:, p], out=gamma[:, b, j])
    return gamma


def spatial_ricci(e, g, grid):
    """Slice Ricci in frame components:

      R[I, J] = e_C gamma[I, J, C] - e_I (sum_C gamma[C, J, C])
                - gamma[C, I, D] gamma[D, J, C] - gamma[I, J, D] v[D],
      v[D] = sum_C gamma[C, C, D]

    Not symmetrized: an evolved connection need not be Levi-Civita, and the
    antisymmetric part is itself a useful monitor.

    Reads the packed connection g[I, p] = gamma[I, J, C], (J, C) = _PAIRS[p]
    (as built by gamma_from_frame) and differentiates it directly: each slot
    adds e_C(g[I, p]) to R[I, J] and subtracts e_J(g[I, p]) from R[I, C];
    sum_C gamma[C, J, C] = -v[J] reuses them.  The quadratic terms expand g
    to its 27 slots once.
    """
    d = [fd_diff(g, ax, grid) for ax in (1, 2, 3)]
    r = np.zeros((3, 3) + e.shape[2:])
    for b, db in enumerate(d):
        for p, (j, c) in enumerate(_PAIRS):
            r[:, j] += e[c, b] * db[:, p]
            r[:, c] -= e[j, b] * db[:, p]
    for b, db in enumerate(d):
        # v = (-g[1, 0] - g[2, 1], g[0, 0] - g[2, 2], g[0, 1] + g[1, 2])
        for j, dv in enumerate((-(db[1, 0] + db[2, 1]), db[0, 0] - db[2, 2], db[0, 1] + db[1, 2])):
            r[:, j] += e[:, b] * dv
    gamma = _unpack_gamma(g)
    r -= np.einsum("cid...,djc...->ij...", gamma, gamma)
    r -= np.einsum("ijd...,d...->ij...", gamma, np.einsum("ccd...->d...", gamma))
    return r


def _scalar_curvature(e, g, grid):
    """tr R of spatial_ricci's formula, from its contracted identity

      R = 2 sum_C e_C(v[C]) - sum_{C,I,D} gamma[C, I, D] gamma[D, I, C] - |v|^2,

    with spatial_ricci's v[D] = sum_C gamma[C, C, D].  The trace of the
    first term is sum_C e_C(v[C]), that of the second is +sum_I e_I(v[I]),
    since sum_C gamma[C, I, C] = -v[I], and that of the last is -|v|^2.
    Only the (J, B) antisymmetry of the packed layout enters, so this holds
    for any packed connection, Levi-Civita or evolved, and it equals the
    trace of spatial_ricci to rounding: the stencil is linear.

    Differentiates the 3 components of v, not the 9 packed slots, and forms
    no Ricci component: 3 fd_diff calls on a third of the data.
    """
    v = np.stack((-(g[1, 0] + g[2, 1]), g[0, 0] - g[2, 2], g[0, 1] + g[1, 2]))
    tr_r = np.zeros(e.shape[2:])
    for b in (0, 1, 2):
        tr_r += np.einsum("c...,c...->...", e[:, b], fd_diff(v, b + 1, grid))
    tr_r *= 2.0
    gamma = _unpack_gamma(g)
    tr_r -= np.einsum("cid...,dic...->...", gamma, gamma)
    tr_r -= np.einsum("d...,d...->...", v, v)
    return tr_r


class FrameState:
    """One time slice of the first-order system: frame, coframe, second
    fundamental form, packed connection coefficients gamma[I, p] (the 9
    independent slots, see gamma_from_frame), and the slice time.  Every
    field is (3, 3) + grid.  The packed layout cannot hold a connection that
    is not antisymmetric in its last two slots, so validation checks its
    shape and finiteness only."""

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
    def from_frame(cls, grid, e, k, t):
        omega = coframe_from_frame(e)
        gamma = gamma_from_frame(np.asarray(e, dtype=float), omega, grid)
        return cls(grid, e, omega, k, gamma, t)

    def _validate(self):
        shape = (3, 3) + self.grid.shape
        fields = (("e", self.e), ("omega", self.omega), ("k", self.k), ("gamma", self.gamma))
        for name, arr in fields:
            if arr.shape != shape:
                raise ConfigError(f"{name} has shape {arr.shape}, expected {shape}")
        # before the identity and symmetry checks, whose deviations a
        # non-finite entry would turn into nan or a numpy warning
        for name, arr in fields:
            _check_finite(arr, name)
        if not np.isfinite(self.t):
            raise ConfigError(f"slice time must be finite, got {self.t}")
        if not self.t > 0:
            raise ConfigError(f"slice time must be positive, got {self.t}")
        prod = np.einsum("ia...,ac...->ic...", self.e, self.omega)
        prod[0, 0] -= 1.0
        prod[1, 1] -= 1.0
        prod[2, 2] -= 1.0
        worst = np.max(np.abs(prod))
        if not worst <= IDENTITY_TOL:
            raise ConfigError(f"e*omega deviates from identity by {worst:.3e}")
        ksym = np.max(np.abs(self.k - np.swapaxes(self.k, 0, 1)))
        if not ksym <= 1e-12 * max(np.max(np.abs(self.k)), 1.0):
            raise ConfigError(f"k is not symmetric (deviation {ksym:.3e})")


def hamiltonian_residual(state):
    """R - |k|^2 + (tr k)^2 on the slice, as a rank-0 TensorField.

    R is the trace of spatial_ricci's formula, taken by _scalar_curvature
    from its contracted identity R = 2 sum_C e_C(v[C]) - gamma[C, I, D]
    gamma[D, I, C] - |v|^2: 3 fd_diff calls on the 3 components of v and no
    Ricci component, where the trace of spatial_ricci would differentiate
    all 9 packed slots and form all 9 components.
    """
    tr_r = _scalar_curvature(state.e, state.gamma, state.grid)
    trk = np.einsum("ii...->...", state.k)
    ksq = np.einsum("ij...,ij...->...", state.k, state.k)
    return TensorField(state.grid, tr_r - ksq + trk**2)


def _momentum_core(e, g, k, grid):
    dk = np.stack([fd_diff(k, ax, grid) for ax in (1, 2, 3)])
    gamma = _unpack_gamma(g)
    res = np.einsum("ja...,aij...->i...", e, dk)
    res -= np.einsum("ia...,a...->i...", e, np.einsum("aii...->a...", dk))
    res -= np.einsum("jic...,cj...->i...", gamma, k)
    res -= np.einsum("jjc...,ic...->i...", gamma, k)
    return res


def momentum_residual_evolved(state):
    """Frame divergence constraint e_J k_IJ - e_I tr k minus connection terms,
    evaluated on the slice's own k."""
    res = _momentum_core(state.e, state.gamma, state.k, state.grid)
    return TensorField(state.grid, res)


def torsion_residual(state):
    """C[I, J, B] = w[I, J, B] - (gamma[I, J, B] - gamma[J, I, B]): zero to
    rounding for gamma built by gamma_from_frame; a live monitor when gamma is
    evolved as an independent unknown.  A check, so it differentiates e itself.

    C is antisymmetric in (I, J), so only its 9 independent entries are
    returned, packed like the connection: c[p, B] = C[I, J, B] with
    (I, J) = _PAIRS[p], from the 9 structure functions."""
    w = _structure_functions(state.e, state.omega, state.grid)
    gamma = _unpack_gamma(state.gamma)
    for p, (i, j) in enumerate(_PAIRS):
        w[p] -= gamma[i, j] - gamma[j, i]
    return TensorField(state.grid, w)


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


def spacetime_ricci(states):
    """Ricci of the 4-metric reconstructed from a series of slices.

    Uses the constant-lapse splitting: the slice Ricci plus measured time
    derivatives of the frame,

      r4_ij[r] = R[r] - d_t kt[r] + tr kt[r] * kt[r]
      r4_00[r] = tr d_t kt[r] - |kt[r]|^2
      r4_0i[r] = frame divergence constraint of kt[r]

    with kt the time-FD second fundamental form.  Needs at least 5 slices
    at log-uniform times, the fourth-order time stencil's width.
    """
    if len(states) < 5:
        raise ConfigError(f"need at least 5 consecutive slices, got {len(states)}")
    grid = states[0].grid
    for r, st in enumerate(states):
        if st.grid != grid:
            raise ConfigError(f"slice {r} is on {st.grid!r}, not on slice 0's {grid!r}")
    t = np.array([st.t for st in states])
    # kt[r, I, J] = omega[r, a, J] (d_t e)[r, I, a], written node by node
    # over d_t e from each state's own coframe
    kt = fd_time_diff(np.stack([st.e for st in states]), t)
    for r, st in enumerate(states):
        kt[r] = np.einsum("aj...,ia...->ij...", st.omega, kt[r])
    dkt_dt = fd_time_diff(kt, t)

    m = t.size
    r4_00 = np.empty((m,) + grid.shape)
    r4_0i = np.empty((m, 3) + grid.shape)
    for r, st in enumerate(states):
        ricci = spatial_ricci(st.e, st.gamma, grid)
        trkt = np.einsum("ii...->...", kt[r])
        r4_00[r] = np.einsum("ii...->...", dkt_dt[r]) - np.einsum("ij...,ij...->...", kt[r], kt[r])
        # r4_ij takes over the d_t kt buffer once r4_00 has read node r
        dkt_dt[r] = ricci - dkt_dt[r] + trkt * kt[r]
        r4_0i[r] = _momentum_core(st.e, st.gamma, kt[r], grid)
    return SpacetimeRicci(t, dkt_dt, r4_00, r4_0i, kt)
