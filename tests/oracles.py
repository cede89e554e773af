"""Independent oracle routes used by the test suite.

Everything here must stay implementation-independent: coordinate-space
Christoffel assembly for curvature/connection checks, reference ODE solves
for the integrating-factor updates, and closed forms for fixed data families.
metric_from_coframe, perturb_offdiagonal and unchecked_exponents build test
inputs that the library itself never needs.  The data set stores c, f and h
packed, 6 slots in asymdata.SLOTS order; unpack_slots rebuilds the full 3x3
matrix for every oracle that reads one as a matrix, and
frame_matrix_reference / coframe_matrix_reference are the full-matrix closed
forms the packed ones must reproduce bit for bit.
The `*_reference` kernels are the plain formulas the optimised library
kernels must reproduce: bit for bit where the arithmetic is unchanged, to a
stated relative tolerance where the summation order changed (gamma and the
spatial Ricci).  The connection oracles work on all 27 slots gamma[I, J, B];
tests compare the library's packed gamma through geometry._unpack_gamma.
tower_reference restates the tower's log-time recurrence over whole
series, and tower_whole_window_reference keeps the three whole-window passes
(exp(-W) g, its quadrature, exp(W)) that the recurrence replaced.
second_fundamental_from_frame is the whole-series k_tilde that
spacetime_ricci_reference builds on.  random_dataset_reference is the
random family generated one field at a time, as the plain loop over modes
it must reproduce bit for bit.  The library itself never imports
this module.
"""

from unittest import mock

import numpy as np
from scipy.integrate import solve_ivp

from kasnerlab.asymdata import (
    DATASET_REL_TOL,
    SLOTS,
    AsymptoticDataSet,
    KasnerExponents,
    exponents_from_u,
    frame_matrix_from_metric,
)
from kasnerlab.errors import ConfigError, NonIntegrableError, SingularFrameError
from kasnerlab.families import U0
from kasnerlab.geometry import _momentum_core, coframe_from_frame, spatial_ricci
from kasnerlab.grids import LOCALIZED, fd_diff, fd_time_diff
from kasnerlab.iteration import (
    CONTRACTION_LIMIT,
    IterateSet,
    _fit_window,
    fit_decay_rate,
    zeroth_iterate,
)


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


def unchecked_exponents(grid, p1, p2, p3):
    """KasnerExponents built past its relation and gap checks, for inputs
    that deliberately violate them; eps is computed as for checked data."""
    with mock.patch.object(KasnerExponents, "_validate", lambda self: None):
        return KasnerExponents(grid, p1, p2, p3)


def unpack_slots(packed, symmetric):
    """The full 3x3 matrix field of a packed c, f or h, shape (6,) + grid:
    slot s fills entry SLOTS[s], and also its mirror when symmetric (c);
    the lower entries of an upper-triangular matrix (f, h) are +0.0."""
    full = np.zeros((3, 3) + packed.shape[1:])
    for s, (i, j) in enumerate(SLOTS):
        full[i, j] = packed[s]
        if symmetric:
            full[j, i] = packed[s]
    return full


def frame_matrix_reference(c):
    """Upper-triangular frame coefficients f_Ia from the full symmetric c
    matrix, every entry of the full (3, 3) + grid result written."""
    f = np.zeros_like(c)
    f[0, 0] = c[0, 0] ** -0.5
    f[1, 1] = c[1, 1] ** -0.5
    f[2, 2] = c[2, 2] ** -0.5
    f[0, 1] = -f[0, 0] * c[0, 1] / c[1, 1]
    f[1, 2] = -f[1, 1] * c[1, 2] / c[2, 2]
    f[0, 2] = f[0, 0] * (c[0, 1] * c[1, 2] / (c[1, 1] * c[2, 2]) - c[0, 2] / c[2, 2])
    return f


def coframe_matrix_reference(f):
    """h = f^{-1} of a full upper-triangular f matrix in closed form."""
    h = np.zeros_like(f)
    h[0, 0] = 1.0 / f[0, 0]
    h[1, 1] = 1.0 / f[1, 1]
    h[2, 2] = 1.0 / f[2, 2]
    h[0, 1] = -f[0, 1] / (f[0, 0] * f[1, 1])
    h[1, 2] = -f[1, 2] / (f[1, 1] * f[2, 2])
    h[0, 2] = (f[0, 1] * f[1, 2] / f[1, 1] - f[0, 2]) / (f[0, 0] * f[2, 2])
    return h


def kappa_reference(p, c):
    """(kappa_1^2, kappa_2^3, kappa_1^3) from the full symmetric c matrix."""
    k12 = (p.p1 - p.p2) * c[0, 1] / c[1, 1]
    k23 = (p.p2 - p.p3) * c[1, 2] / c[2, 2]
    k13 = (p.p2 - p.p1) * c[0, 1] * c[1, 2] / (c[1, 1] * c[2, 2]) + (p.p1 - p.p3) * c[0, 2] / c[2, 2]
    return k12, k23, k13


def perturb_offdiagonal(data, amp=0.01, entry=(1, 2), axis=2):
    """Copy of data with one off-diagonal c entry perturbed by a single sine mode.

    Breaks the differential constraint while keeping every type-level
    identity (f is rebuilt from the perturbed c, and h and kappa are formed
    from it where they are read).
    """
    i, j = entry
    if i == j:
        raise ValueError("perturb an off-diagonal entry; diagonals would break positivity bounds")
    grid = data.grid
    x = grid.mesh(axis)
    c = data.c.copy()
    bump = amp * np.sin(2.0 * np.pi * x / grid.delta)
    s = SLOTS.index((min(i, j) - 1, max(i, j) - 1))
    c[s] = c[s] + bump
    return AsymptoticDataSet(data.p, c, seam=data.seam)


def metric_check_reference(c):
    """AsymptoticDataSet's finiteness and positivity checks on a packed c
    by whole-array formulas on its full matrix, with the same error texts;
    returns max|c|."""
    c = unpack_slots(c, symmetric=True)
    if not np.all(np.isfinite(c)):
        raise ConfigError("c contains non-finite entries")
    for i in range(3):
        if np.any(c[i, i] <= 0.0):
            bad = np.unravel_index(int(np.argmin(c[i, i])), c.shape[2:])
            raise ConfigError(
                f"c{i + 1}{i + 1} must be positive; min = "
                f"{float(np.min(c[i, i])):.3e} at grid index {tuple(int(v) for v in bad)}"
            )
    return float(np.max(np.abs(c)))


def metric_from_frame_reference(f):
    """c from the upper-triangular frame coefficients, all entries at once."""
    c = np.zeros_like(f)
    c[0, 0] = f[0, 0] ** -2.0
    c[1, 1] = f[1, 1] ** -2.0
    c[2, 2] = f[2, 2] ** -2.0
    c[0, 1] = c[1, 0] = -f[0, 1] / (f[0, 0] * f[1, 1] ** 2)
    c[1, 2] = c[2, 1] = -f[1, 2] / (f[1, 1] * f[2, 2] ** 2)
    c[0, 2] = c[2, 0] = (f[0, 1] * f[1, 2] / f[1, 1] - f[0, 2]) / (f[0, 0] * f[2, 2] ** 2)
    return c


def round_trip_reference(f, c, scale):
    """AsymptoticDataSet's c -> f -> c round-trip check on packed f and c
    by whole-array formulas on their full matrices, with the same error text."""
    back = metric_from_frame_reference(unpack_slots(f, symmetric=False))
    err = float(np.max(np.abs(back - unpack_slots(c, symmetric=True))))
    if err > DATASET_REL_TOL * scale:
        raise ConfigError(f"metric/frame round trip failed: max error {err:.3e} vs scale {scale:.3e}")


def christoffel_from_metric(g, grid):
    """Gamma^a_bc of a spatial metric g[a,b,...] by FD of the metric.

    Independent of the frame/connection-coefficient route: only the
    coordinate metric and its coordinate derivatives enter.
    """
    ginv = np.linalg.inv(np.moveaxis(g, (0, 1), (-2, -1)))
    ginv = np.moveaxis(ginv, (-2, -1), (0, 1))
    dg = np.stack([fd_diff(g, ax, grid) for ax in (1, 2, 3)])  # dg[c,a,b] = d_c g_ab
    # Gamma^a_bc = 1/2 g^{ad} (d_b g_dc + d_c g_db - d_d g_bc)
    term = (
        np.einsum("bdc...->dbc...", dg)
        + np.einsum("cdb...->dbc...", dg)
        - dg
    )
    return 0.5 * np.einsum("ad...,dbc...->abc...", ginv, term)


def ricci_coordinate_oracle(g, grid):
    """Coordinate Ricci tensor R_bc from FD Christoffel symbols."""
    gam = christoffel_from_metric(g, grid)
    dgam = np.stack([fd_diff(gam, ax, grid) for ax in (1, 2, 3)])  # dgam[d,a,b,c]
    r = np.einsum("aabc...->bc...", dgam)
    r -= np.einsum("baac...->bc...", dgam)  # d_b Gamma^a_ac
    r += np.einsum("aad...,dbc...->bc...", gam, gam)
    r -= np.einsum("abd...,dac...->bc...", gam, gam)
    return r


def covariant_gamma_oracle(e, omega, grid):
    """gamma_IJB = omega_aB (e_I)^b (d_b e_Ja + Gamma^a_bc e_Jc): Koszul route."""
    g = np.einsum("ac...,bc...->ab...", omega, omega)
    gam = christoffel_from_metric(g, grid)
    de = np.stack([fd_diff(e, ax, grid) for ax in (1, 2, 3)])  # de[b,J,a]
    cov = np.einsum("ib...,bja...->ija...", e, de) + np.einsum(
        "ib...,abc...,jc...->ija...", e, gam, e
    )
    return np.einsum("ija...,ab...->ijb...", cov, omega)


def ode_reference(w_func, forcing, t_nodes, y_t0, t0, rtol=1e-11, atol=1e-13):
    """Reference solution of y' = w(t) y + F(t), y(t0) = y_t0, on given nodes.

    Used to check the integrating-factor quadrature on manufactured inputs.
    """
    t_nodes = np.asarray(t_nodes, dtype=float)

    def rhs(t, y):
        return w_func(t) * y + forcing(t)

    sol = solve_ivp(
        rhs,
        (t0, t_nodes[-1]),
        np.atleast_1d(y_t0),
        t_eval=t_nodes[t_nodes >= t0],
        rtol=rtol,
        atol=atol,
        method="DOP853",
    )
    assert sol.success, sol.message
    return sol


def quad_cumulative(func, nodes, epsabs=1e-13, epsrel=1e-12):
    """Cumulative integral of func from nodes[0], by adaptive quadrature per panel.

    Independent of the composite-rule cumulative integrator the library uses.
    """
    from scipy.integrate import quad

    nodes = np.asarray(nodes, dtype=float)
    out = np.zeros(nodes.shape)
    for j in range(1, len(nodes)):
        panel, _ = quad(func, nodes[j - 1], nodes[j], epsabs=epsabs, epsrel=epsrel)
        out[j] = out[j - 1] + panel
    return out


def sympy_residual_gaps(seed):
    """frame_I + (1/2) sum_a f_Ia mom_a for random polynomial data, symbolically.

    Both residual families are built from their defining formulas over random
    integer-coefficient polynomials.  Parametrizing by the frame entries f
    (with the metric entries derived through the closed formulas) keeps every
    expression rational, so exact evaluation at rational points decides the
    identity.  The exponent fields are unconstrained random polynomials: the
    identity must hold without the two algebraic relations, and the data do
    not satisfy the differential constraint either.

    Returns (gaps, coordinate_symbols); each gap must be identically zero.
    """
    import sympy as sp

    rng = np.random.default_rng(seed)
    xs = sp.symbols("x1 x2 x3")

    def poly(shift=0):
        monos = [sp.Integer(1), *xs]
        monos += [a * b for idx, a in enumerate(xs) for b in xs[idx:]]
        coeffs = rng.integers(-3, 4, size=len(monos))
        return sp.Integer(shift) + sum(sp.Integer(int(cf)) * m for cf, m in zip(coeffs, monos))

    f = {(i, i): poly(shift=5 + i) for i in range(3)}
    f[(0, 1)], f[(0, 2)], f[(1, 2)] = poly(), poly(), poly()
    p = [poly(), poly(), poly()]

    c = {
        (0, 0): 1 / f[(0, 0)] ** 2,
        (1, 1): 1 / f[(1, 1)] ** 2,
        (2, 2): 1 / f[(2, 2)] ** 2,
        (0, 1): -f[(0, 1)] / (f[(0, 0)] * f[(1, 1)] ** 2),
        (1, 2): -f[(1, 2)] / (f[(1, 1)] * f[(2, 2)] ** 2),
        (0, 2): (f[(0, 1)] * f[(1, 2)] / f[(1, 1)] - f[(0, 2)]) / (f[(0, 0)] * f[(2, 2)] ** 2),
    }
    kap = {(i, i): -p[i] for i in range(3)}
    kap[(0, 1)] = (p[0] - p[1]) * c[(0, 1)] / c[(1, 1)]
    kap[(1, 2)] = (p[1] - p[2]) * c[(1, 2)] / c[(2, 2)]
    kap[(0, 2)] = (p[1] - p[0]) * c[(0, 1)] * c[(1, 2)] / (c[(1, 1)] * c[(2, 2)]) + (
        p[0] - p[2]
    ) * c[(0, 2)] / c[(2, 2)]
    vol = c[(0, 0)] * c[(1, 1)] * c[(2, 2)]

    def mom(i):
        out = sp.Integer(0)
        for l in range(3):
            out += sp.diff(c[(l, l)], xs[i]) / c[(l, l)] * (p[l] - p[i])
            if l >= i:
                out += 2 * sp.diff(kap[(i, l)], xs[l])
            if l > i:
                out += sp.diff(vol, xs[l]) / vol * kap[(i, l)]
        return out

    h = {
        (0, 0): 1 / f[(0, 0)],
        (1, 1): 1 / f[(1, 1)],
        (2, 2): 1 / f[(2, 2)],
        (0, 1): -f[(0, 1)] / (f[(0, 0)] * f[(1, 1)]),
        (1, 2): -f[(1, 2)] / (f[(1, 1)] * f[(2, 2)]),
        (0, 2): (f[(0, 1)] * f[(1, 2)] / f[(1, 1)] - f[(0, 2)]) / (f[(0, 0)] * f[(2, 2)]),
    }

    def ee(row, expr):
        return sum(f[(row, a)] * sp.diff(expr, xs[a]) for a in range(row, 3))

    gaps = []
    for i in range(3):
        frame = ee(i, p[i])
        for j in range(3):
            if j != i:
                frame += (p[j] - p[i]) * ee(i, f[(j, j)]) / f[(j, j)]
        for j in range(i + 1, 3):
            for a in range(i, j + 1):
                frame -= (p[j] - p[i]) * h[(a, j)] * ee(j, f[(i, a)])
        mom_combo = sum(f[(i, a)] * mom(a) for a in range(i, 3))
        gaps.append(frame + mom_combo / 2)
    return gaps, xs


def momentum_coordinate_oracle(g, k_frame, e, omega, grid):
    """Momentum constraint vector by the coordinate route.

    Push k to coordinate indices (k_ab = omega_aI omega_bJ k_IJ), take the
    covariant divergence with FD Christoffels of g, subtract the gradient of
    the trace, and pull back along the frame.  Shares nothing with the
    frame/connection-coefficient evaluation it cross-checks.
    """
    gam = christoffel_from_metric(g, grid)
    ginv = np.linalg.inv(np.moveaxis(g, (0, 1), (-2, -1)))
    ginv = np.moveaxis(ginv, (-2, -1), (0, 1))
    k_coord = np.einsum("ai...,bj...,ij...->ab...", omega, omega, k_frame)
    dk = np.stack([fd_diff(k_coord, ax, grid) for ax in (1, 2, 3)])
    cov = dk - np.einsum("dac...,db...->acb...", gam, k_coord) - np.einsum(
        "dab...,cd...->acb...", gam, k_coord
    )
    div = np.einsum("ac...,acb...->b...", ginv, cov)
    trk = np.einsum("ab...,ab...->...", ginv, k_coord)
    dtr = np.stack([fd_diff(trk, ax, grid) for ax in (1, 2, 3)])
    return np.einsum("ib...,b...->i...", e, div - dtr)


def kasner_symbolic_ricci():
    """Ricci matrix of -dt^2 + sum_i t^(2 p_i) (dx^i)^2, symbolic in p_i, t."""
    import sympy as sp

    t = sp.symbols("t", positive=True)
    p = sp.symbols("p1 p2 p3")
    x = [t, *sp.symbols("x1 x2 x3")]
    g = sp.diag(-1, *[t ** (2 * pi) for pi in p])
    ginv = g.inv()
    n = 4
    gam = [
        [
            [
                sum(
                    ginv[a, d]
                    * (sp.diff(g[d, b], x[c]) + sp.diff(g[d, c], x[b]) - sp.diff(g[b, c], x[d]))
                    for d in range(n)
                )
                / 2
                for c in range(n)
            ]
            for b in range(n)
        ]
        for a in range(n)
    ]
    ric = sp.zeros(n, n)
    for b in range(n):
        for c in range(n):
            ric[b, c] = sp.simplify(
                sum(sp.diff(gam[a][b][c], x[a]) for a in range(n))
                - sum(sp.diff(gam[a][a][c], x[b]) for a in range(n))
                + sum(gam[a][a][d] * gam[d][b][c] for a in range(n) for d in range(n))
                - sum(gam[a][b][d] * gam[d][a][c] for a in range(n) for d in range(n))
            )
    return ric, p, t


# one-sided fourth-order first-derivative rows of the seed stencil, row i =
# stencil for node i counted from the boundary
ONESIDED_ROWS = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0


def second_fundamental_from_frame(e_series, omega_series, t_nodes):
    """k_tilde[r, I, J] = omega[r, a, J] (d_t e)[r, I, a] from stacked slices
    at log-uniform times, the time stencil in log t.  The measured second
    fundamental form: no evolution right side enters."""
    e_series = np.asarray(e_series, dtype=float)
    omega_series = np.asarray(omega_series, dtype=float)
    t = np.asarray(t_nodes, dtype=float)
    if np.any(t <= 0):
        raise ConfigError("slice times must be positive")
    if e_series.shape[0] != t.size or omega_series.shape[0] != t.size:
        raise ConfigError("series and t_nodes lengths disagree")
    return np.einsum("maj...,mia...->mij...", omega_series, fd_time_diff(e_series, t))


def spacetime_ricci_reference(states):
    """(r4_ij, r4_00, r4_0i, k_tilde) of geometry.spacetime_ricci by
    whole-series formulas: stacked e and omega series, k_tilde and its time
    derivative formed whole, r4_ij in its own array."""
    grid = states[0].grid
    t = np.array([st.t for st in states])
    kt = second_fundamental_from_frame(
        np.stack([st.e for st in states]), np.stack([st.omega for st in states]), t
    )
    dkt_dt = fd_time_diff(kt, t)
    r4_ij = np.empty_like(kt)
    r4_00 = np.empty((t.size,) + grid.shape)
    r4_0i = np.empty((t.size, 3) + grid.shape)
    for r, st in enumerate(states):
        trkt = np.einsum("ii...->...", kt[r])
        r4_ij[r] = spatial_ricci(st.e, st.gamma, grid) - dkt_dt[r] + trkt * kt[r]
        r4_00[r] = np.einsum("ii...->...", dkt_dt[r]) - np.einsum("ij...,ij...->...", kt[r], kt[r])
        r4_0i[r] = _momentum_core(st.e, st.gamma, kt[r], grid)
    return r4_ij, r4_00, r4_0i, kt


def _onesided_faces(df, values, axis, h):
    """Overwrite the face slabs of a centered derivative with one-sided rows."""
    n = values.shape[axis]
    for i, row in enumerate(ONESIDED_ROWS):
        width = row.size
        lead = sum(row[m] * np.take(values, m, axis=axis) for m in range(width)) / h
        trail = -sum(row[m] * np.take(values, n - 1 - m, axis=axis) for m in range(width)) / h
        idx_lead = [slice(None)] * values.ndim
        idx_lead[axis] = i
        idx_trail = [slice(None)] * values.ndim
        idx_trail[axis] = n - 1 - i
        df[tuple(idx_lead)] = lead
        df[tuple(idx_trail)] = trail
    return df


def roll_stencil_reference(values, axis, h, mode="periodic"):
    """Centered fourth-order first derivative along axis (1..3 from the end)
    by np.roll, with one-sided face rows in localized mode."""
    ax = values.ndim - 3 + (axis - 1)
    df = (
        8.0 * (np.roll(values, -1, ax) - np.roll(values, 1, ax))
        - (np.roll(values, -2, ax) - np.roll(values, 2, ax))
    ) / (12.0 * h)
    if mode == LOCALIZED:
        _onesided_faces(df, values, ax, h)
    return df


def fd_time_diff_reference(series, t):
    """d/dt along the leading axis of a series on log-uniform nodes t by the
    seed formula: the interior stencil summed left to right, one-sided rows
    at both ends, then divided by the log-time step and by t."""
    n = series.shape[0]
    ds = np.empty_like(series)
    ds[2:-2] = (series[:-4] - 8.0 * series[1:-3] + 8.0 * series[3:-1] - series[4:]) / 12.0
    for i, row in enumerate(ONESIDED_ROWS):
        ds[i] = sum(row[m] * series[m] for m in range(row.size))
        ds[n - 1 - i] = -sum(row[m] * series[n - 1 - m] for m in range(row.size))
    h_s = float(np.diff(np.log(t))[0])
    return ds / h_s / t.reshape((-1,) + (1,) * (series.ndim - 1))


def seam_reference(p, c11, c22, c33, kappa12):
    """(c11, kappa23, kappa13) seam jumps by re-evaluating each transport's
    right side from its formula and summing it over one x^3 period."""
    grid = p.grid

    def d(values, axis):
        return fd_diff(values, axis, grid)

    def loop(integrand):
        return grid.h * np.sum(integrand, axis=-1)

    log_v = np.log(c11) + np.log(c22) + np.log(c33)
    mu = np.exp(0.5 * log_v)
    rhs11 = ((p.p3 - p.p2) * d(np.log(c22), 3) + 2.0 * d(p.p3, 3)) / (p.p3 - p.p1)
    rhs23 = (
        0.5 * (p.p2 - p.p1) * d(np.log(c11), 2)
        + 0.5 * (p.p2 - p.p3) * d(np.log(c33), 2)
        + d(p.p2, 2)
    )
    rhs13 = 0.5 * (
        (p.p1 - p.p2) * d(np.log(c22), 1)
        + (p.p1 - p.p3) * d(np.log(c33), 1)
        + 2.0 * d(p.p1, 1)
        - 2.0 * d(kappa12, 2)
        - kappa12 * d(log_v, 2)
    )
    return (
        np.max(np.abs(loop(rhs11))),
        np.max(np.abs(loop(mu * rhs23) / mu[:, :, 0])),
        np.max(np.abs(loop(mu * rhs13) / mu[:, :, 0])),
    )


def gamma_reference(e, omega, grid):
    """Connection coefficients from all 27 frame commutator entries:
    gamma[I, J, B] = 1/2 (w[I, J, B] - w[J, B, I] + w[B, I, J]), w[I, J, X] =
    omega[a, X] comm[I, J, a], antisymmetrized in (J, B) at the end."""
    de = np.stack([fd_diff(e, ax, grid) for ax in (1, 2, 3)])
    ede = np.einsum("ib...,bja...->ija...", e, de)
    comm = ede - np.swapaxes(ede, 0, 1)
    w = np.einsum("ija...,ax...->ijx...", comm, omega)
    raw = w - np.einsum("jbi...->ijb...", w) + np.einsum("bij...->ijb...", w)
    return 0.25 * (raw - np.swapaxes(raw, 1, 2))


def spatial_ricci_reference(e, gamma, grid):
    """Frame Ricci differentiating all 27 components of gamma."""
    dgam = np.stack([fd_diff(gamma, ax, grid) for ax in (1, 2, 3)])
    r = np.einsum("cb...,bijc...->ij...", e, dgam)
    trace13 = np.einsum("cjc...->j...", gamma)
    dtr = np.stack([fd_diff(trace13, ax, grid) for ax in (1, 2, 3)])
    r -= np.einsum("ib...,bj...->ij...", e, dtr)
    r -= np.einsum("cid...,djc...->ij...", gamma, gamma)
    r -= np.einsum("ijd...,d...->ij...", gamma, np.einsum("ccd...->d...", gamma))
    return r


def tail_reference(m, h_s, noise_floor=0.0):
    """Power-law tail below t_min from the full m = tau*g series, judged
    against each component's max of |m| over all nodes (the seed closure);
    an abort also needs |m| at the first node above noise_floor, which at 0
    leaves the seed's rule."""
    m0, m1 = m[0], m[1]
    a0, a1 = np.abs(m0), np.abs(m1)
    comp_scale = np.max(np.abs(m), axis=0)
    negligible = (a0 <= 1e-8 * comp_scale) | (a1 <= 1e-8 * comp_scale)
    signflip = (m0 * m1) < 0
    ok = ~(negligible | signflip)
    q = np.zeros_like(a0)
    np.divide(np.log(np.where(a1 > 0, a1, 1.0)) - np.log(np.where(a0 > 0, a0, 1.0)), h_s, out=q, where=ok)
    bad = ok & (q <= 1e-12) & (a0 >= 0.5 * comp_scale) & (a0 > noise_floor)
    if np.any(bad):
        comp = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NonIntegrableError(
            f"non-integrable growth toward t=0 in component {comp}: "
            f"integrand head dominates the series and does not decay "
            f"(|m0|={a0[comp]:.3e}, |m1|={a1[comp]:.3e})"
        )
    ok &= q > 1e-12
    tail = np.zeros_like(m0)
    np.divide(m0, np.where(ok, q, 1.0), out=tail, where=ok)
    return tail


def cumsum_cumint_reference(samples, tgrid, noise_floor=0.0):
    """Log-time cumulative trapezoid by np.cumsum along the time axis, plus
    the power-law tail below t_min, on the full m = tau*g series."""
    m = samples * tgrid.times.reshape((-1,) + (1,) * (samples.ndim - 1))
    if not np.all(np.isfinite(m)):
        raise NonIntegrableError("non-finite samples passed to the log-time quadrature")
    out = np.empty_like(m)
    out[0] = tail_reference(m, tgrid.h_s, noise_floor)
    np.cumsum(0.5 * tgrid.h_s * (m[1:] + m[:-1]), axis=0, out=out[1:])
    out[1:] += out[0]
    return out


def _level_cumint_reference(n, what, samples, tgrid, noise_floor):
    try:
        return cumsum_cumint_reference(samples, tgrid, noise_floor)
    except NonIntegrableError as err:
        raise NonIntegrableError(f"{what} at level {n}: {err}") from err


def _integrating_factor_reference(n, field, w, tgrid, noise_floor):
    what = f"{field} integrating factor"
    big_w = _level_cumint_reference(n, what, w, tgrid, noise_floor)
    if not np.max(np.abs(big_w)) <= CONTRACTION_LIMIT:
        raise NonIntegrableError(f"{what} at level {n}: exponent beyond {CONTRACTION_LIMIT}")
    return big_w


def _update_reference(n, field, big_w, m, tgrid, noise_floor, whole_window):
    """y = exp(W) int_0^t exp(-W) g dtau from m = t g, W broadcasting
    against m; the tail below t_min is that of the whole normalized series
    exp(-W) m, y_0 = exp(W_0) times it.  By the log-time step

      y_{j+1} = exp(W_{j+1} - W_j) (y_j + (h/2) m_j) + (h/2) m_{j+1},

    or, for whole_window, by the three whole-window passes that step
    replaced: exp(-W) m, its cumulative trapezoid, and the factor exp(W)."""
    normalized = np.exp(-big_w) * m
    try:
        if not np.all(np.isfinite(normalized)):
            raise NonIntegrableError("non-finite samples passed to the log-time quadrature")
        tail = tail_reference(normalized, tgrid.h_s, noise_floor)
    except NonIntegrableError as err:
        raise NonIntegrableError(f"{field} update at level {n}: {err}") from err
    half = 0.5 * tgrid.h_s
    if whole_window:
        acc = np.empty_like(m)
        acc[0] = tail
        np.cumsum(half * (normalized[1:] + normalized[:-1]), axis=0, out=acc[1:])
        acc[1:] += tail
        return np.exp(big_w) * acc
    growth = np.exp(np.diff(big_w, axis=0))
    y = np.empty_like(m)
    y[0] = np.exp(big_w[0]) * tail
    for j in range(len(m) - 1):
        y[j + 1] = growth[j] * (y[j] + half * m[j]) + half * m[j + 1]
    return y


def _tower_reference(data, times, n_max, noise_floor, whole_window):
    """Tower levels 1..n_max by whole-series formulas, each level's two
    linear updates solved by _update_reference.

    Returns one (e, omega, k, asym_norms, fitted_slope) tuple per level;
    fitted_slope is None where the fit window has too few positive
    k-differences to fit. noise_floor is tail_reference's.
    """
    t_col = times.times.reshape((-1, 1, 1, 1, 1, 1))
    pv = data.p.as_array()
    zeroth = previous = zeroth_iterate(data, times)
    e0, k0 = zeroth.e, zeroth.k
    mask = _fit_window(times)
    out = []
    for n in range(1, n_max + 1):
        # k update: y = t (k[n] - k[0])
        w = np.einsum("rii...->r...", previous.k) - np.einsum("rii...->r...", k0)
        big_w = _integrating_factor_reference(n, "k", w, times, noise_floor)
        m = np.stack([t * (t * previous.ricci_at(r) + w[r] * t * k0[r]) for r, t in enumerate(times.times)])
        y = _update_reference(n, "k", big_w[:, None, None], m, times, noise_floor, whole_window)
        k_n = k0 + y / t_col
        asym = 0.5 * (k_n - np.swapaxes(k_n, 1, 2))
        asym_norms = np.abs(asym).reshape(times.n_steps, -1).max(axis=1)
        k_n = k_n - asym

        # frame update: y = t^p_I (e[n] - e[0])
        w_diag = np.einsum("rii...->ri...", k_n) - np.einsum("rii...->ri...", k0)
        big_w = _integrating_factor_reference(n, "frame", w_diag, times, noise_floor)
        k_off = previous.k.copy()
        for i in range(3):
            k_off[:, i, i] = 0.0
        m = np.empty_like(e0)
        for r, t in enumerate(times.times):
            t_up = np.exp(pv * np.log(t))
            source = e0[r] * w_diag[r][:, None] + np.einsum("ic...,ca...->ia...", k_off[r], previous.e[r])
            m[r] = t * (t_up[:, None] * source)
        y = _update_reference(n, "frame", big_w[:, :, None], m, times, noise_floor, whole_window)
        e_n = np.empty_like(e0)
        omega = np.empty_like(e0)
        for r, t in enumerate(times.times):
            t_down = np.exp(-pv * np.log(t))
            e_n[r] = e0[r] + t_down[:, None] * y[r]
            try:
                omega[r] = coframe_from_frame(e_n[r])
            except SingularFrameError as err:
                raise SingularFrameError(f"tower level {n} at t={t:.6e}: {err}") from err

        diff = np.abs(k_n - previous.k).reshape(times.n_steps, -1).max(axis=1)
        # the fit runs on the window's positive nodes when there are at
        # least 6 of them spanning 1.5 decades
        t_fit, diff_fit = times.times[mask & (diff > 0)], diff[mask & (diff > 0)]
        checked = t_fit.size >= 6 and t_fit[-1] / t_fit[0] >= 10.0**1.5
        slope = fit_decay_rate(t_fit, diff_fit)[0] if checked else None
        out.append((e_n, omega, k_n, asym_norms, slope))
        previous = IterateSet(n, data, times, e_n, k_n, asym_norms)
    return out


def tower_reference(data, times, n_max, noise_floor=0.0):
    """The tower by the log-time recurrence, the scheme build_tower runs."""
    return _tower_reference(data, times, n_max, noise_floor, whole_window=False)


def tower_whole_window_reference(data, times, n_max):
    """The tower by the whole-window formulas the recurrence replaced: the
    same trapezoid, rounded differently."""
    return _tower_reference(data, times, n_max, 0.0, whole_window=True)


def frame_momentum_residual_reference(data, big_i):
    """asymdata.frame_momentum_residual from the whole f and h matrices,
    f by frame_matrix_reference from the full c and h by
    coframe_matrix_reference, each product formed by a plain expression."""
    grid = data.grid
    bi = big_i - 1
    p = (data.p.p1, data.p.p2, data.p.p3)
    f = frame_matrix_reference(unpack_slots(data.c, symmetric=True))
    h = coframe_matrix_reference(f)

    def ee(row, arr):
        out = np.zeros(grid.shape)
        for a in range(row, 3):
            out += f[row, a] * fd_diff(arr, a + 1, grid)
        return out

    res = ee(bi, p[bi])
    for j in range(3):
        if j != bi:
            res += (p[j] - p[bi]) * ee(bi, np.log(f[j, j]))
    for j in range(bi + 1, 3):
        for a in range(bi, j + 1):
            weight = (p[j] - p[bi]) * h[a, j]
            res -= weight * ee(j, f[bi, a])
    return res


def zeroth_series_reference(data, times):
    """Closed-form level-0 series (e, omega, k), node by node: e = f t^-p,
    omega = h t^p, k = -diag(p)/t, with identically zero entries left +0.0."""
    pv = data.p.as_array()
    f = unpack_slots(frame_matrix_from_metric(data.c), symmetric=False)
    h = coframe_matrix_reference(f)
    shape = (times.n_steps, 3, 3) + data.grid.shape
    e, omega, k = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    for r, t in enumerate(times.times):
        logt = np.log(t)
        down = np.exp(-pv * logt)
        up = np.exp(pv * logt)
        for i in range(3):
            k[r, i, i] = -pv[i] / t
            for a in range(3):
                if f[i, a].any():
                    e[r, i, a] = f[i, a] * down[i]
                if h[i, a].any():
                    omega[r, i, a] = h[i, a] * up[a]
    return e, omega, k


def _trig_field_reference(grid, rng, amp):
    """One band-limited random trig field of sup at most amp: its own cos and
    sin per mode, a (a, b) draw per mode, normalized by the sequential
    coefficient l1 sum."""
    coords = [grid.mesh(ax) * (2.0 * np.pi / grid.delta) for ax in (1, 2, 3)]
    out = np.zeros(grid.shape)
    total = 0.0
    for k1 in range(-2, 3):
        for k2 in range(-2, 3):
            for k3 in range(3):
                if (k1, k2, k3) == (0, 0, 0) or (k3 == 0 and (k2 < 0 or (k2 == 0 and k1 < 0))):
                    continue
                a, b = rng.normal(size=2)
                phase = k1 * coords[0] + k2 * coords[1] + k3 * coords[2]
                out = out + a * np.cos(phase) + b * np.sin(phase)
                total += abs(a) + abs(b)
    return amp * out / total


def random_dataset_reference(grid, seed):
    """The random family field by field: u - U0 (sup 0.25), log c_11, log
    c_22, log c_33 (0.3 each), then c_12, c_13, c_23 (0.2 each), drawn in
    that order from the generator of seed."""
    rng = np.random.default_rng(seed)
    u = U0 + _trig_field_reference(grid, rng, 0.25)
    p = exponents_from_u(grid, u)
    c = np.empty((6,) + grid.shape)
    for i in range(3):
        c[i] = np.exp(_trig_field_reference(grid, rng, 0.3))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        c[SLOTS.index((i, j))] = _trig_field_reference(grid, rng, 0.2)
    return AsymptoticDataSet(p, c)
