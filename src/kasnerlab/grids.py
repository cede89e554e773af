"""Numerical substrate: periodic spatial grids, log-uniform time grids,
shape-checked scalar and tensor fields, finite-difference derivatives, and
product quadrature against power-law singular integrands.

Conventions used throughout the package:
  - spatial fields store their three grid axes LAST, so a frame field has
    shape (3, 3, n, n, n) and a scalar (n, n, n);
  - time-sampled series store the time-node axis FIRST;
  - one stencil kernel serves space and time: centered in the interior;
    periodic mode wraps, localized mode switches to one-sided stencils of
    the same order at faces.  fd_diff applies it at fourth order along a
    trailing spatial axis in the grid's mode, fd_time_diff along the leading
    time axis in localized mode.

Non-periodic data sampled on a periodic grid (e.g. f = x1) is NOT rejected:
the wrap-around stencil sees the sawtooth jump and produces large derivatives
near the seam. Callers own the periodicity of their data; the asymptotic-data
generator reports seam mismatch explicitly.
"""

import math

import numpy as np

from .errors import GridError, NonIntegrableError

PERIODIC = "periodic"
LOCALIZED = "localized"


class SpatialGrid:
    """Uniform cubic grid on [0, delta]^3 with n_pts points per axis.

    In periodic mode the point x = delta is identified with x = 0 and is not
    stored, so the spacing is h = delta / n_pts.
    """

    def __init__(self, delta, n_pts, mode=PERIODIC):
        if not (delta > 0):
            raise GridError(f"delta must be positive, got {delta}")
        n_pts = int(n_pts)
        if n_pts < 8:
            raise GridError(f"n_pts must be >= 8 per axis, got {n_pts}")
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
        if not (0 < t_min < t_max):
            raise GridError(f"need 0 < t_min < t_max, got ({t_min}, {t_max})")
        n_steps = int(n_steps)
        if n_steps < 2:
            raise GridError(f"n_steps must be >= 2, got {n_steps}")
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.n_steps = n_steps
        self.s = np.linspace(math.log(t_min), math.log(t_max), n_steps)
        self.times = np.exp(self.s)
        # pin the endpoints exactly despite exp/log rounding
        self.times[0] = self.t_min
        self.times[-1] = self.t_max
        self.h_s = (self.s[-1] - self.s[0]) / (n_steps - 1)

    def __eq__(self, other):
        return (
            isinstance(other, LogTimeGrid)
            and self.t_min == other.t_min
            and self.t_max == other.t_max
            and self.n_steps == other.n_steps
        )

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
    """Tensor field with 1..3 frame/coordinate indices ahead of the grid axes.

    Construction checks the shape, the index dimensions and finiteness; hot
    loops work on raw arrays and wrap results at module boundaries.
    """

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        rank = values.ndim - 3
        if rank not in (1, 2, 3) or values.shape[rank:] != grid.shape:
            raise GridError(
                f"tensor values shape {values.shape} incompatible with grid shape {grid.shape}"
            )
        if values.shape[:rank] != (3,) * rank:
            raise GridError(f"tensor index dimensions must be 3, got {values.shape[:rank]}")
        _check_finite(values, "TensorField")
        self.grid = grid
        self.values = values
        self.rank = rank


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

# the order of every spatial derivative: fourth order, with one-sided
# fourth-order rows at the faces of a localized grid
STENCIL_ORDER = 4

# one-sided first-derivative rows (order 4 -> 5-point, order 2 -> 3-point),
# row i = stencil for node i counted from the boundary
_ONESIDED = {
    4: np.array(
        [
            [-25.0, 48.0, -36.0, 16.0, -3.0],
            [-3.0, -10.0, 18.0, -6.0, 1.0],
        ]
    )
    / 12.0,
    2: np.array([[-3.0, 4.0, -1.0]]) / 2.0,
}


def _flat_stencil(values, axis, order, h):
    """Centered derivative along `axis` of a C-contiguous array, run on its
    flat view: k nodes along the axis are k*step entries there, so every
    operation streams over one contiguous span.  The order//2 nodes next to
    each face read into the neighbouring row and are left for the caller."""
    w = order // 2
    step = math.prod(values.shape[axis + 1 :])
    span = values.size - 2 * w * step
    flat = values.reshape(-1)

    def shift(k):
        return flat[(w + k) * step :][:span]

    df = np.empty_like(values)
    out = np.subtract(shift(1), shift(-1), out=df.reshape(-1)[w * step :][:span])
    if order == 4:
        # difference grouping keeps the stencil exactly zero on fields that
        # are constant along the axis
        out *= 8.0
        out -= shift(2) - shift(-2)
        out /= 12.0 * h
    else:
        out /= 2.0 * h
    return df


def _stencil(values, axis, order, h, mode):
    """First derivative along the absolute `axis`: the centered stencil in
    the interior, and at the order//2 nodes next to each face either the
    same stencil on the wrapped slab (periodic) or one-sided rows of the
    same order (localized)."""
    if order not in (2, 4):
        raise GridError(f"stencil order must be 2 or 4, got {order}")
    if mode not in (PERIODIC, LOCALIZED):
        raise GridError(f"unknown grid mode {mode!r}")
    if values.shape[axis] < order + 1:
        raise GridError(f"need at least {order + 1} nodes along the axis for order {order}")
    values = np.ascontiguousarray(values, dtype=np.result_type(values, 1.0))
    w = order // 2
    n = values.shape[axis]
    df = _flat_stencil(values, axis, order, h)
    faces = np.moveaxis(df, axis, 0)
    if mode == PERIODIC:
        # the wrapped slab of nodes n-2w..n-1, 0..2w-1
        seam = _flat_stencil(np.take(values, np.arange(-2 * w, 2 * w), axis=axis), axis, order, h)
        seam = np.moveaxis(seam, axis, 0)
        faces[n - w :] = seam[w : 2 * w]
        faces[:w] = seam[2 * w : 3 * w]
        return df
    nodes = np.moveaxis(values, axis, 0)
    for i, row in enumerate(_ONESIDED[order]):
        # leading face node i; trailing face node n-1-i mirrored, sign flipped
        faces[i] = sum(c * nodes[m] for m, c in enumerate(row)) / h
        faces[n - 1 - i] = -sum(c * nodes[n - 1 - m] for m, c in enumerate(row)) / h
    return df


def fd_diff(values, axis, grid):
    """First derivative along a spatial axis of a raw array sampled on `grid`,
    at STENCIL_ORDER in the grid's mode.

    axis counts from the END: axis=1..3 addresses the three trailing grid
    axes, so the same call works for scalars, tensors, and time series.
    """
    return _stencil(values, values.ndim - 3 + (axis - 1), STENCIL_ORDER, grid.h, grid.mode)


def fd_time_diff(series, h_s, order=4):
    """d/ds along the leading (time-node) axis; one-sided rows at the ends.

    Series are sampled uniformly in s = log t, so d/dt = (1/t) d/ds.
    """
    return _stencil(np.asarray(series), 0, order, h_s, LOCALIZED)


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
    over all nodes. Fitting m ~ A exp(q s) from nodes 0 and 1 gives
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


def log_time_cumint(samples, tgrid, out=None):
    """Cumulative integral F_j = int_0^{t_j} g dtau for g sampled at the nodes.

    Trapezoid in s = log tau applied to m = tau*g, plus the fitted power-law
    tail below t_min. Works on any trailing shape; time axis leads.

    Memory: the output plus a few one-node slabs.  m is formed one node at
    a time, node j before out[j] is written, so `out` may be `samples`: the
    integral then overwrites the samples and nothing series-sized is added.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != tgrid.n_steps:
        raise GridError("sample count does not match time grid")

    def node(j):
        m_j = samples[j] * tgrid.times[j]
        if not np.all(np.isfinite(m_j)):
            raise NonIntegrableError("non-finite samples passed to the log-time quadrature")
        return m_j

    out = np.empty(samples.shape) if out is None else out
    half = 0.5 * tgrid.h_s
    m0, m1 = node(0), node(1)
    scale = np.maximum(np.abs(m0), np.abs(m1))
    out[1] = half * (m1 + m0)
    m_prev = m1
    # slab by slab: np.cumsum along a leading axis runs a slow strided inner loop
    for j in range(2, samples.shape[0]):
        m_j = node(j)
        scale = np.maximum(scale, np.abs(m_j))
        out[j] = out[j - 1] + half * (m_j + m_prev)
        m_prev = m_j
    out[0] = _tail_below_first_node(m0, m1, scale, tgrid.h_s)
    out[1:] += out[0]
    return out
