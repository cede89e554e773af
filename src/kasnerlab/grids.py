"""Numerical substrate: periodic spatial grids, log-uniform time grids,
shape-checked tensor fields (a scalar is rank 0), finite-difference
derivatives, and product quadrature against power-law singular integrands.

Conventions used throughout the package:
  - spatial fields store their three grid axes LAST, so a frame field has
    shape (3, 3, n, n, n) and a scalar (n, n, n);
  - time-sampled series store the time-node axis FIRST;
  - one fourth-order stencil kernel serves space and time: centered in the
    interior; periodic mode wraps, localized mode switches to one-sided
    fourth-order rows at faces.  fd_diff applies it along a trailing spatial
    axis in the grid's mode; fd_time_diff returns d/dt along the leading
    time axis of a series on log-uniform nodes, applying it in s = log t in
    localized mode;
  - one integrator in log time, _log_time_steps, takes every integral from
    t = 0: log_time_cumint at W = 0, the tower's updates with their W;
  - one parallel helper, _each_node, runs a loop's parts (time nodes, or
    the integrator's spatial slabs) on one thread per usable core;
  - input that a function cannot accept (a bad grid, a field of the wrong
    shape) raises errors.ConfigError, and one check, _check_finite, reports
    a non-finite value by its index, for TensorField and geometry's
    FrameState alike.

Non-periodic data sampled on a periodic grid (e.g. f = x1) is NOT rejected:
the wrap-around stencil sees the sawtooth jump and produces large derivatives
near the seam. Callers own the periodicity of their data; the asymptotic-data
generator reports seam mismatch explicitly.
"""

import math
import os
import threading

import numpy as np

from .errors import ConfigError, NonIntegrableError

PERIODIC = "periodic"
LOCALIZED = "localized"


class SpatialGrid:
    """Uniform cubic grid on [0, delta]^3 with n_pts points per axis.

    In periodic mode the point x = delta is identified with x = 0 and is not
    stored, so the spacing is h = delta / n_pts.
    """

    def __init__(self, delta, n_pts, mode=PERIODIC):
        if not (0 < delta < math.inf):
            raise ConfigError(f"delta must be positive and finite, got {delta}")
        # NaN-safe, and int(inf) is never reached
        if not (8 <= n_pts < math.inf and int(n_pts) == n_pts):
            raise ConfigError(f"n_pts must be an integer >= 8 per axis, got {n_pts}")
        n_pts = int(n_pts)
        if mode not in (PERIODIC, LOCALIZED):
            raise ConfigError(f"unknown grid mode {mode!r}")
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
            raise ConfigError(f"axis must be 1..3, got {axis}")
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
            raise ConfigError(f"need 0 < t_min < t_max < inf, got ({t_min}, {t_max})")
        if not (2 <= n_steps < math.inf and int(n_steps) == n_steps):
            raise ConfigError(f"n_steps must be an integer >= 2, got {n_steps}")
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


def _check_finite(values, name):
    """Raise ConfigError naming the index of the first non-finite value."""
    if not np.all(np.isfinite(values)):
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
        raise ConfigError(f"{name} has a non-finite value at index {bad}")


class TensorField:
    """Real tensor field on a SpatialGrid: rank 0 to 2, each index of
    dimension 3, ahead of the grid axes, so a scalar is the rank-0 case.

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
        if rank not in (0, 1, 2) or values.shape[rank:] != grid.shape:
            raise ConfigError(
                f"tensor values shape {values.shape} incompatible with grid shape {grid.shape}"
            )
        if values.shape[:rank] != (3,) * rank:
            raise ConfigError(f"tensor index dimensions must be 3, got {values.shape[:rank]}")
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


# the centered kernel runs over blocks of this many entries of the flat
# span, so its one temporary is a block, not a copy of the field
_BLOCK = 2**15


def _flat_stencil(values, axis, h):
    """Centered fourth-order derivative along `axis` of a C-contiguous array,
    run on its flat view: k nodes along the axis are k*step entries there, so
    every operation streams over one contiguous span, block by block.  The
    stencil is elementwise on the span, so a block edge changes no bit.  The
    2 nodes next to each face read into the neighbouring row and are left
    for the caller."""
    step = math.prod(values.shape[axis + 1 :])
    stop = values.size - _W * step
    flat = values.reshape(-1)
    df = np.empty_like(values)
    out = df.reshape(-1)
    for start in range(_W * step, stop, _BLOCK):
        end = min(start + _BLOCK, stop)
        block = out[start:end]
        np.subtract(flat[start + step : end + step], flat[start - step : end - step], out=block)
        # difference grouping keeps the stencil exactly zero on fields that
        # are constant along the axis
        block *= 8.0
        block -= flat[start + 2 * step : end + 2 * step] - flat[start - 2 * step : end - 2 * step]
        block /= 12.0 * h
    return df


def _check_nodes(n):
    if n < 2 * _W + 1:
        raise ConfigError(f"need at least {2 * _W + 1} nodes along the axis")


def _stencil(values, axis, h, mode):
    """Fourth-order first derivative along the absolute `axis`: the centered
    stencil in the interior, and at the 2 nodes next to each face either the
    same stencil on the wrapped neighbours (periodic), run on one contiguous
    gather of the seam's nodes, or the one-sided rows (localized).  Beyond
    the output it holds a block and, periodic, the gathered ring of 4 * _W
    nodes and its derivative."""
    _check_nodes(values.shape[axis])
    values = np.ascontiguousarray(values, dtype=np.result_type(values, 1.0))
    n = values.shape[axis]
    df = _flat_stencil(values, axis, h)
    faces = np.moveaxis(df, axis, 0)
    if mode == PERIODIC:
        # one gather of the 2 * _W nodes on each side of the seam, in wrapped
        # order (n-4..n-1, 0..3): the interior kernel on that ring gives the
        # face nodes n-2, n-1, 0, 1 from their wrapped neighbours, the same
        # operations on the same operands as in the interior
        ring = np.take(values, np.arange(n - 2 * _W, n + 2 * _W) % n, axis=axis)
        faces[np.arange(n - _W, n + _W) % n] = np.moveaxis(_flat_stencil(ring, axis, h), axis, 0)[_W : 3 * _W]
        return df
    nodes = np.moveaxis(values, axis, 0)
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

    m0 and m1 hold tau*g at nodes 0 and 1 (normalized by exp(-W) in
    _log_time_steps), comp_scale the max of its modulus over all nodes, so
    a NaN or inf at any node reaches it and aborts.
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


def _log_time_steps(m, big_w, scale, tgrid):
    """y = exp(W) int_0^t exp(-W) g dtau at every node, from m = t g and
    W = int_0^t w dtau, each node's W broadcasting against its slab; the
    result is written in place of m, which is returned.

    The trapezoid in s = log t takes one step per node,

      y_{j+1} = exp(W_{j+1} - W_j) (y_j + (h/2) m_j) + (h/2) m_{j+1},

    from y_0 = exp(W_0) times the power-law tail of the normalized head
    exp(-W) m, judged against scale, each component's max of |exp(-W) m|
    over the series, which the caller forms.  The tail runs whole on the
    calling thread, so an abort names the first bad component in C order.
    The steps run on equal slabs along the first grid axis (of three
    trailing ones), one per usable core: they are elementwise in space, so
    every element keeps its bits.  Beyond m and W they hold three node
    slabs in all.
    """
    y = _tail_below_first_node(*(np.exp(-big_w[j]) * m[j] for j in (0, 1)), scale, tgrid.h_s)
    y *= np.exp(big_w[0])
    half = 0.5 * tgrid.h_s
    work = np.empty(m.shape[1:])
    np.multiply(half, m[0], out=work)
    work += y
    m[0] = y
    n = m.shape[-3] if m.ndim >= 4 else 1
    parts = min(_cores(), n)

    def slab(a, i):
        # a W of length 1 along the axis broadcasts against every slab
        return a if parts == 1 or a.shape[-3] == 1 else a[..., n * i // parts : n * (i + 1) // parts, :, :]

    _each_node(lambda i: _steps(slab(m, i), slab(big_w, i), slab(work, i), half), parts)
    return m


def _steps(m, big_w, work, half):
    """The steps from node 0, which holds y_0, with work = y_0 + (h/2) m_0:
    per step exp(W_{j+1} - W_j) scales work, then m_{j+1} becomes y_{j+1}
    and work y_{j+1} + (h/2) m_{j+1}.  Each sum takes the operands of the
    recurrence's, so every y_j has its bits."""
    y = np.empty_like(work)
    for j in range(len(m) - 1):
        m_next = m[j + 1, ...]  # a view, also of a 1-d series
        work *= np.exp(big_w[j + 1] - big_w[j])
        np.multiply(half, m_next, out=y)
        np.add(y, work, out=m_next)
        np.add(m_next, y, out=work)


def log_time_cumint(samples, tgrid):
    """Cumulative integral F_j = int_0^{t_j} g dtau for g sampled at the nodes.

    Trapezoid in s = log tau applied to m = tau*g, plus the fitted power-law
    tail below t_min: _log_time_steps with W = 0, for which exp(+-W) = 1
    exactly, so the tail's scale is max |m| over the nodes.  Works on any
    trailing shape; time axis leads.

    Memory: the output, which holds m first, its modulus while the scale
    is taken, and a few node slabs.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != tgrid.n_steps:
        raise ConfigError("sample count does not match time grid")
    zero_w = np.zeros((tgrid.n_steps,) + (1,) * (samples.ndim - 1))
    m = samples * tgrid.times.reshape(zero_w.shape)
    return _log_time_steps(m, zero_w, np.max(np.abs(m), axis=0), tgrid)


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------


def _cores():
    """The cores this process may run on where the platform says (Linux),
    else all of them: macOS and Windows have no sched_getaffinity."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _each_node(fn, m):
    """fn(r) for every part r = 0..m-1 (a time node, or a slab), on one
    thread per usable core, numpy releasing the GIL in its array loops.

    Part r goes to share r mod T of T = min(cores, m) threads, and the
    calling thread runs share 0; with one core this is the plain loop.  fn
    must write only what belongs to part r.  Each share stops at its first
    exception.  Every thread is joined before this returns or raises, and
    the exception of the lowest failing part is re-raised: as the plain
    loop, which stops at that part, would raise it.
    """
    n_threads = min(_cores(), m)
    failures = [None] * n_threads  # (r, exception) of each share's first failure

    def share(j):
        for r in range(j, m, n_threads):
            try:
                fn(r)
            except Exception as err:  # re-raised on the calling thread
                failures[j] = (r, err)
                return

    workers = []  # the started ones
    try:
        for j in range(1, n_threads):
            worker = threading.Thread(target=share, args=(j,))
            worker.start()
            workers.append(worker)
        share(0)
    finally:
        for worker in workers:
            worker.join()
    raised = [failure for failure in failures if failure is not None]
    if raised:
        raise min(raised, key=lambda failure: failure[0])[1]
