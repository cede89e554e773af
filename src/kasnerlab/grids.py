"""Numerical substrate: periodic spatial grids, log-uniform time grids,
shape-checked scalar and tensor fields, finite-difference derivatives, and
product quadrature against power-law singular integrands.

Conventions used throughout the package:
  - spatial fields store their three grid axes LAST, so a frame field has
    shape (3, 3, n, n, n) and a scalar (n, n, n);
  - time-sampled series store the time-node axis FIRST;
  - one fourth-order stencil kernel serves space and time: centered in the
    interior; periodic mode wraps, localized mode switches to one-sided
    fourth-order rows at faces.  fd_diff applies it along a trailing spatial
    axis in the grid's mode; fd_time_diff returns d/dt along the leading
    time axis of a series on log-uniform nodes, applying it in s = log t in
    localized mode.

Non-periodic data sampled on a periodic grid (e.g. f = x1) is NOT rejected:
the wrap-around stencil sees the sawtooth jump and produces large derivatives
near the seam. Callers own the periodicity of their data; the asymptotic-data
generator reports seam mismatch explicitly.
"""

import math

import numpy as np

from .errors import ConfigError, GridError, NonIntegrableError

PERIODIC = "periodic"
LOCALIZED = "localized"


class SpatialGrid:
    """Uniform cubic grid on [0, delta]^3 with n_pts points per axis.

    In periodic mode the point x = delta is identified with x = 0 and is not
    stored, so the spacing is h = delta / n_pts.
    """

    def __init__(self, delta, n_pts, mode=PERIODIC):
        if not (0 < delta < math.inf):
            raise GridError(f"delta must be positive and finite, got {delta}")
        # NaN-safe, and int(inf) is never reached
        if not (8 <= n_pts < math.inf and int(n_pts) == n_pts):
            raise GridError(f"n_pts must be an integer >= 8 per axis, got {n_pts}")
        n_pts = int(n_pts)
        if mode not in (PERIODIC, LOCALIZED):
            raise GridError(f"unknown grid mode {mode!r}")
        self.delta = float(delta)
        self.n_pts = n_pts
        self.mode = mode
        self.h = self.delta / n_pts
        self.shape = (n_pts, n_pts, n_pts)

    def axis_coords(self):
        """1-d coordinate array shared by the three axes."""
        return self.h * np.arange(self.n_pts)

    def mesh(self, axis):
        """Coordinate array of x^axis (axis in 1..3) broadcastable to shape."""
        if axis not in (1, 2, 3):
            raise GridError(f"axis must be 1..3, got {axis}")
        shape = [1, 1, 1]
        shape[axis - 1] = self.n_pts
        return self.axis_coords().reshape(shape)

    def __eq__(self, other):
        return (
            isinstance(other, SpatialGrid)
            and self.delta == other.delta
            and self.n_pts == other.n_pts
            and self.mode == other.mode
        )

    def __repr__(self):
        return f"SpatialGrid(delta={self.delta}, n_pts={self.n_pts}, mode={self.mode!r})"


class LogTimeGrid:
    """n_steps nodes uniform in log t on [t_min, t_max], endpoints included."""

    def __init__(self, t_min, t_max, n_steps):
        if not (0 < t_min < t_max < math.inf):
            raise GridError(f"need 0 < t_min < t_max < inf, got ({t_min}, {t_max})")
        if not (2 <= n_steps < math.inf and int(n_steps) == n_steps):
            raise GridError(f"n_steps must be an integer >= 2, got {n_steps}")
        n_steps = int(n_steps)
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.n_steps = n_steps
        self.s = np.linspace(math.log(t_min), math.log(t_max), n_steps)
        self.times = np.exp(self.s)
        # pin the endpoints exactly despite exp/log rounding
        self.times[0] = self.t_min
        self.times[-1] = self.t_max
        self.h_s = (self.s[-1] - self.s[0]) / (n_steps - 1)

    def __repr__(self):
        return f"LogTimeGrid({self.t_min!r}, {self.t_max!r}, {self.n_steps})"


def _check_finite(values, what):
    if not np.all(np.isfinite(values)):
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
        raise GridError(f"{what} has non-finite value at index {bad}")


class ScalarField:
    """Real scalar field sampled on a SpatialGrid."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise GridError(f"scalar values shape {values.shape} != grid shape {grid.shape}")
        _check_finite(values, "ScalarField")
        self.grid = grid
        self.values = values


class TensorField:
    """Tensor field with one or two 3-valued indices ahead of the grid axes.

    A tensor antisymmetric in a pair of frame indices is stored packed: the
    pair becomes one index p over its 3 independent pairs (I, J), I < J, as
    in geometry's torsion c[p, B] = C[I, J, B], so its 9 independent entries
    fill a (3, 3) field.  Construction checks the shape, the index
    dimensions and finiteness; hot loops work on raw arrays and wrap results
    at module boundaries.
    """

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        rank = values.ndim - 3
        if rank not in (1, 2) or values.shape[rank:] != grid.shape:
            raise GridError(
                f"tensor values shape {values.shape} incompatible with grid shape {grid.shape}"
            )
        if values.shape[:rank] != (3,) * rank:
            raise GridError(f"tensor index dimensions must be 3, got {values.shape[:rank]}")
        _check_finite(values, "TensorField")
        self.grid = grid
        self.values = values


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

# the stencil width: fourth-order centered differences read 2 nodes on each
# side, and localized faces take the 5-point one-sided rows below
_W = 2

# one-sided fourth-order first-derivative rows, row i = stencil for node i
# counted from the boundary
_ONESIDED = (
    np.array(
        [
            [-25.0, 48.0, -36.0, 16.0, -3.0],
            [-3.0, -10.0, 18.0, -6.0, 1.0],
        ]
    )
    / 12.0
)


def _flat_stencil(values, axis, h):
    """Centered fourth-order derivative along `axis` of a C-contiguous array,
    run on its flat view: k nodes along the axis are k*step entries there, so
    every operation streams over one contiguous span.  The 2 nodes next to
    each face read into the neighbouring row and are left for the caller."""
    step = math.prod(values.shape[axis + 1 :])
    span = values.size - 2 * _W * step
    flat = values.reshape(-1)

    def shift(k):
        return flat[(_W + k) * step :][:span]

    df = np.empty_like(values)
    _centered(df.reshape(-1)[_W * step :][:span], shift, h)
    return df


def _centered(out, shift, h):
    """The centered fourth-order stencil into out, shift(k) giving the
    values k nodes along the axis."""
    np.subtract(shift(1), shift(-1), out=out)
    # difference grouping keeps the stencil exactly zero on fields that are
    # constant along the axis
    out *= 8.0
    out -= shift(2) - shift(-2)
    out /= 12.0 * h


def _check_nodes(n):
    if n < 2 * _W + 1:
        raise GridError(f"need at least {2 * _W + 1} nodes along the axis")


def _stencil(values, axis, h, mode):
    """Fourth-order first derivative along the absolute `axis`: the centered
    stencil in the interior, and at the 2 nodes next to each face either the
    same stencil on the wrapped neighbours (periodic) or the one-sided rows
    (localized)."""
    _check_nodes(values.shape[axis])
    values = np.ascontiguousarray(values, dtype=np.result_type(values, 1.0))
    n = values.shape[axis]
    df = _flat_stencil(values, axis, h)
    faces = np.moveaxis(df, axis, 0)
    nodes = np.moveaxis(values, axis, 0)
    if mode == PERIODIC:
        # each face node from its wrapped neighbours, by the interior's kernel
        for i in (*range(_W), *range(n - _W, n)):
            _centered(faces[i], lambda k: nodes[(i + k) % n], h)
        return df
    for i, row in enumerate(_ONESIDED):
        # leading face node i; trailing face node n-1-i mirrored, sign flipped
        faces[i] = sum(c * nodes[m] for m, c in enumerate(row)) / h
        faces[n - 1 - i] = -sum(c * nodes[n - 1 - m] for m, c in enumerate(row)) / h
    return df


def fd_diff(values, axis, grid):
    """First derivative along a spatial axis of a raw array sampled on `grid`,
    at fourth order in the grid's mode.

    axis counts from the END: axis=1..3 addresses the three trailing grid
    axes, so the same call works for scalars, tensors, and time series.
    """
    return _stencil(values, values.ndim - 3 + (axis - 1), grid.h, grid.mode)


def fd_time_diff(series, t):
    """d/dt along the leading (time-node) axis of a series sampled at
    positive nodes t uniform in log t, as on a LogTimeGrid: the stencil in
    s = log t with one-sided rows at the ends, then d/dt = (1/t) d/ds."""
    if not np.all(np.isfinite(t)):
        raise ConfigError("slice times must be finite")
    if np.any(t <= 0):
        raise ConfigError("slice times must be positive")
    _check_nodes(len(t))
    steps = np.diff(np.log(t))
    hs = float(steps[0])
    if hs == 0:
        raise ConfigError("time spacing is zero")
    if not np.max(np.abs(steps - hs)) <= 1e-9 * abs(hs):
        raise ConfigError("t_nodes must be uniform in log t")
    out = _stencil(np.asarray(series), 0, hs, LOCALIZED)
    out /= t.reshape((-1,) + (1,) * (out.ndim - 1))
    return out


# ---------------------------------------------------------------------------
# singular product quadrature in log time
# ---------------------------------------------------------------------------


# Absolute rounding floor of a head tau*g at t_min.  The tower forms its
# integrands from t*k0 = -p (|p| <= 1) and e0*t^p = f, O(1) for the data
# families, so their noise is absolute, and a runaway elsewhere in the
# series cannot raise it.  Measured noise heads: 5e-19 to 6e-14 (n = 8 to
# 32, growing about as n^2); genuine non-decaying heads: 6.5e-4 and above.
TAIL_NOISE_FLOOR = 1e-10


def _tail_below_first_node(m0, m1, comp_scale, h_s):
    """Power-law closure of int_0^{t_min} g dtau from the first two samples.

    m0 and m1 hold tau*g at nodes 0 and 1, comp_scale the max of |tau*g|
    over all nodes, so a NaN or inf at any node reaches it and aborts.
    Fitting m ~ A exp(q s) from nodes 0 and 1 gives
    tail = m_0/q, valid when q > 0 (g integrable). The validity tests are
    per component, against comp_scale: a head at its own rounding floor, a
    sign flip between the first two nodes, or a non-growing head all mean
    no resolvable integrable power law, and the component contributes zero
    tail. Non-integrable growth is flagged only when the head is itself the
    series maximum, fails to grow along s, and stands above TAIL_NOISE_FLOOR:
    a decreasing head buried far below the series scale, or a component
    whose whole series is rounding noise, is cancellation noise, not
    divergence.
    """
    if not np.all(np.isfinite(comp_scale)):
        raise NonIntegrableError("non-finite samples passed to the log-time quadrature")
    a0, a1 = np.abs(m0), np.abs(m1)
    negligible = (a0 <= 1e-8 * comp_scale) | (a1 <= 1e-8 * comp_scale)
    signflip = (m0 * m1) < 0
    ok = ~(negligible | signflip)
    q = np.zeros_like(a0)
    np.divide(np.log(np.where(a1 > 0, a1, 1.0)) - np.log(np.where(a0 > 0, a0, 1.0)), h_s, out=q, where=ok)
    bad = ok & (q <= 1e-12) & (a0 >= 0.5 * comp_scale) & (a0 > TAIL_NOISE_FLOOR)
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


def log_time_cumint(samples, tgrid):
    """Cumulative integral F_j = int_0^{t_j} g dtau for g sampled at the nodes.

    Trapezoid in s = log tau applied to m = tau*g, plus the fitted power-law
    tail below t_min. Works on any trailing shape; time axis leads.

    Memory: the output plus a few one-node slabs, m being formed one node
    at a time.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != tgrid.n_steps:
        raise GridError("sample count does not match time grid")

    out = np.empty(samples.shape)
    half = 0.5 * tgrid.h_s
    m0, m1 = samples[0] * tgrid.times[0], samples[1] * tgrid.times[1]
    scale = np.maximum(np.abs(m0), np.abs(m1))
    out[1] = half * (m1 + m0)
    m_prev = m1
    # slab by slab: np.cumsum along a leading axis runs a slow strided inner loop
    for j in range(2, samples.shape[0]):
        m_j = samples[j] * tgrid.times[j]
        scale = np.maximum(scale, np.abs(m_j))
        out[j] = out[j - 1] + half * (m_j + m_prev)
        m_prev = m_j
    out[0] = _tail_below_first_node(m0, m1, scale, tgrid.h_s)
    out[1:] += out[0]
    return out
