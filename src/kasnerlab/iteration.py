"""Approximate-solution tower over a log-uniform time grid.

Level 0 is the closed-form product of the asymptotic data (weighted frame
f t^-p, its inverse h t^p, k = -diag(p)/t).  Each higher level solves two
linear transport problems in time by integrating factors, with the integrals
taken from t = 0:

  t (k[n] - k[0])      = exp(W) int_0^t exp(-W(tau)) {tau R[n-1]
                                    + w (tau k[0])} dtau,  w = tr k[n-1] - tr k[0]
  t^p_I (e[n] - e[0])  = exp(W_I) int_0^t exp(-W_I(tau)) Omega_I dtau,
                                    W_I from w_I = k[n]_II - k[0]_II (no sum)

with W = int_0^t w dtau and Omega_Ia = t^{p_I} (e[0]_Ia w_I + sum_{C != I}
k[n-1]_IC e[n-1]_Ca); the off-diagonal zeroth k vanishes, which folds the
source's two coupling terms into one.  Both updates are solved by one
recurrence, grids' _log_time_steps, which also takes W's own quadrature
(log_time_cumint, the same steps at zero W): with g the integrand above
without exp(-W) and m = t g, the trapezoid in s = log t takes one step per
node,

  y_{j+1} = exp(W_{j+1} - W_j) (y_j + (h/2) m_j) + (h/2) m_{j+1},

from y_0 = exp(W_0) times the power-law tail closure of the normalized head
exp(-W) m below t_min.  On spatially homogeneous data every right side is
exactly zero in floating point, so the tower sits at the fixed point bit
for bit.

The time update for k preserves symmetry analytically but not in quadrature;
levels store the discarded asymmetry norm per node as a health series and
return the symmetrized field.

A level stores the frame e and k as series and nothing else: the coframe
(the frame's pointwise inverse) and gamma are formed per node on use.

A right side at a time node reads the previous level at that node only, so
the per-node loops of an update (the sources m, and the finish after the
recurrence) run on one thread per usable core, numpy releasing the GIL in
its array loops; each node's arithmetic is unchanged, so every level is the
same bit for bit on any number of cores.  Each extra thread holds one
node's working set, at most a Ricci evaluation's: 22 MB at n = 32
(measured), 9.4 node slabs.  The integrator's two passes (the tail's scale,
then the steps), for W and for each update, and the envelope fit run on
the calling thread.
"""

import os
import threading
import warnings

import numpy as np

from .asymdata import SLOTS, _coframe_entry, frame_matrix_from_metric
from .errors import ConfigError, NonIntegrableError, SingularFrameError
from .geometry import coframe_from_frame, frame_determinant, gamma_from_frame, spatial_ricci
from .grids import _log_time_steps, log_time_cumint

MAX_TOWER_LEVEL = 4
# fitted-slope slack for the warning-grade envelope report; the paper's
# constants are not quantitative, so only exponents are checked
ENVELOPE_SLACK = 0.15
# the envelope fit spans the lowest FIT_DECADES of the time window; at least
# the 1.5 decades fit_decay_rate insists on
FIT_DECADES = 2.0


class IterateSet:
    """One tower level: the frame and k series on the time grid.

    The coframe and gamma are derived from the frame per node on use
    (coframe_at, ricci_at); storing them would add one and one series to
    the two a level holds.  `omega` forms the whole coframe series on each
    access, at O(series) time and memory; the tower itself never reads it.
    """

    def __init__(self, n, data, times, e, k, asym_norms=None):
        self.n = int(n)
        self.data = data
        self.times = times
        self.e = e
        self.k = k
        self.asym_norms = asym_norms
        self.envelope = None

    @property
    def grid(self):
        return self.data.grid

    def coframe_at(self, r):
        """Coframe at node r: the inverse of e[r] above level 0; at level 0
        h t^p, with f formed from the data set's c for this call and each
        slot of h formed here from f."""
        if self.n > 0:
            return coframe_from_frame(self.e[r])
        data = self.data
        up = np.exp(data.p.as_array() * np.log(self.times.times[r]))  # t^{p_a}
        f = frame_matrix_from_metric(data.c)
        omega = np.zeros((3, 3) + data.grid.shape)
        for s, (i, a) in enumerate(SLOTS):
            h = _coframe_entry(f, s)
            # the lower entries, and slots of h that vanish identically (some
            # formed as -0.0), stay +0.0
            if h.any():
                omega[i, a] = h * up[a]
        return omega

    @property
    def omega(self):
        """The coframe series, formed node by node anew on each access."""
        omega = np.empty_like(self.e)
        for r in range(self.times.n_steps):
            omega[r] = self.coframe_at(r)
        return omega

    def ricci_at(self, index):
        e = self.e[index]
        gamma = gamma_from_frame(e, self.coframe_at(index), self.grid)
        return spatial_ricci(e, gamma, self.grid)


def zeroth_iterate(data, times):
    """Level 0 in closed form: e = f t^-p, k = -diag(p)/t (coframe h t^p),
    with f formed from the data set's c."""
    # f before the t^-p series: formed after them, it raised the health
    # workload's set-up peak RSS by 12 MB at n = 24 (heap placement)
    f = frame_matrix_from_metric(data.c)
    pv = data.p.as_array()[None]
    t = times.times.reshape((-1,) + (1,) * (pv.ndim - 1))
    down = np.exp(-pv * np.log(t))  # t^{-p_I}
    e = np.zeros((times.n_steps, 3, 3) + data.grid.shape)
    for s, (i, a) in enumerate(SLOTS):
        # the lower entries, and slots of f that vanish identically (some
        # formed as -0.0), stay +0.0
        if f[s].any():
            e[:, i, a] = f[s] * down[:, i]
    k = np.zeros_like(e)
    k[:, range(3), range(3)] = -pv / t
    return IterateSet(0, data, times, e, k)


# integrating-factor exponent beyond which the window is clearly outside the
# contraction regime; exp() would overflow near 700 anyway
CONTRACTION_LIMIT = 200.0


def _integrating_factor(n, field, w, times):
    """W = int_0^t w dtau for the `field` update at level n, checked against
    CONTRACTION_LIMIT."""
    what = f"{field} integrating factor at level {n}"
    try:
        big_w = log_time_cumint(w, times)
    except NonIntegrableError as err:
        raise NonIntegrableError(f"{what}: {err}") from err
    worst = float(np.max(np.abs(big_w)))
    if not np.isfinite(worst) or worst > CONTRACTION_LIMIT:
        raise NonIntegrableError(
            f"{what}: exponent reached {worst:.3g}; "
            f"the time window extends beyond the contraction regime, reduce t_max"
        )
    return big_w


def _solve(n, field, w, source, finish, times):
    """The `field` update at level n, y = exp(W) int_0^t exp(-W) g dtau with
    W = int_0^t w dtau, each node's W broadcasting against its (3, 3) slab.

    source(r, out) writes node r's m = t g into out, and finish(r, y_r)
    turns node r's y into the level's field in place; _each_node runs each
    on every node.  Between them the calling thread runs grids'
    _log_time_steps, the trapezoid in s = log t one step per node.  Returns
    the field's series, one buffer throughout (m, then y, then the field);
    beyond it the solve holds W and three node slabs.
    """
    # a unit axis before the grid axes: W[j] is (1,) + grid for k and
    # (3, 1) + grid, one W per frame row, for the frame
    big_w = np.expand_dims(_integrating_factor(n, field, w, times), -4)
    m = np.empty((times.n_steps, 3, 3) + w.shape[-3:])
    _each_node(lambda r: source(r, m[r]), times.n_steps)
    try:
        _log_time_steps(m, big_w, times)
    except NonIntegrableError as err:
        raise NonIntegrableError(f"{field} update at level {n}: {err}") from err
    _each_node(lambda r: finish(r, m[r]), times.n_steps)
    return m


def _each_node(fn, m):
    """fn(r) for every node r = 0..m-1, on one thread per usable core.

    Node r goes to share r mod T of T = min(cores, m) threads, and the
    calling thread runs share 0; with one core this is the plain loop.  fn
    must write only what belongs to node r.  Each share stops at its first
    exception.  Every thread is joined before this returns or raises, and
    the exception of the lowest failing node is re-raised: as the plain
    loop, which stops at that node, would raise it.
    """
    # the cores this process may run on where the platform says (Linux),
    # else all of them: macOS and Windows have no sched_getaffinity
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    n_threads = min(cores, m)
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


def advance_k(n, previous, zeroth):
    """Level-n second fundamental form from level n-1 and level 0.

    Returns (k_series, asym_norms): the symmetrized update and the
    per-node sup norm of the part the symmetrization discarded.

    Memory: the solve's one series-sized buffer, which becomes k_series;
    W, a ninth of a series; a few node slabs on the calling thread; and one
    node's working set per thread: a Ricci evaluation, 22 MB at n = 32
    (measured).
    """
    if n < 1:
        raise ConfigError(f"advance_k needs n >= 1, got {n}")
    times, k0 = previous.times, zeroth.k
    w = np.einsum("rii...->r...", previous.k) - np.einsum("rii...->r...", k0)
    asym_norms = np.empty(times.n_steps)

    def source(r, out):
        t = times.times[r]
        np.multiply(t, t * previous.ricci_at(r) + w[r] * t * k0[r], out=out)

    def finish(r, k_r):
        k_r /= times.times[r]
        np.add(k0[r], k_r, out=k_r)
        asym = 0.5 * (k_r - np.swapaxes(k_r, 0, 1))
        asym_norms[r] = np.abs(asym).max()
        k_r -= asym

    return _solve(n, "k", w, source, finish, times), asym_norms


def advance_e(n, k_n, previous, zeroth):
    """Level-n frame from the freshly advanced k, level n-1 and level 0.

    The diagonal of k couples at level n (it sits in the integrating
    factor); off-diagonal terms enter the source at level n-1, as the
    scheme's update order requires.  Returns e_series; each node's frame
    is checked to be invertible, the coframe itself is not formed.

    Memory: as in advance_k, with e_series in place of k_series and a W of
    a third of a series; a node's working set here is a few node slabs,
    under a Ricci evaluation's.
    """
    if n < 1:
        raise ConfigError(f"advance_e needs n >= 1, got {n}")
    times, e0, k0 = previous.times, zeroth.e, zeroth.k
    pv = previous.data.p.as_array()
    w_diag = np.einsum("rii...->ri...", k_n) - np.einsum("rii...->ri...", k0)

    def source(r, out):
        t = times.times[r]
        t_up = np.exp(pv * np.log(t))  # t^{p_I}
        k_off = previous.k[r].copy()
        k_off[range(3), range(3)] = 0.0
        rhs = e0[r] * w_diag[r][:, None] + np.einsum("ic...,ca...->ia...", k_off, previous.e[r])
        np.multiply(t_up[:, None], rhs, out=out)
        out *= t

    def finish(r, e_r):
        t = times.times[r]
        e_r *= np.exp(-pv * np.log(t))[:, None]  # t^{-p_I}
        np.add(e0[r], e_r, out=e_r)
        try:
            frame_determinant(e_r)
        except SingularFrameError as err:
            raise SingularFrameError(f"tower level {n} at t={t:.6e}: {err}") from err

    return _solve(n, "frame", w_diag, source, finish, times)


def fit_decay_rate(t, norms):
    """Least-squares power-law fit log(norm) ~ slope*log(t) + intercept.

    Returns (slope, intercept, r_squared).  Needs at least 6 samples
    spanning 1.5 decades, and finite, strictly positive times and norms.
    """
    t = np.asarray(t, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if t.shape != norms.shape or t.ndim != 1:
        raise ConfigError("t and norms must be 1-d arrays of equal length")
    if t.size < 6:
        raise ConfigError(f"need at least 6 samples for a decay fit, got {t.size}")
    # NaN-safe: a NaN must fail this test, not pass on to the fit
    if not np.all((0 < t) & (t < np.inf) & (0 < norms) & (norms < np.inf)):
        raise ConfigError("decay fit requires finite, strictly positive times and norms")
    if np.max(t) / np.min(t) < 10.0**1.5:
        raise ConfigError("decay fit requires samples spanning at least 1.5 decades")
    x = np.log(t)
    y = np.log(norms)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


def _fit_window(times):
    t = times.times
    mask = t <= times.t_min * 10.0**FIT_DECADES
    if np.count_nonzero(mask) < 6:
        mask = np.zeros_like(mask)
        mask[:6] = True
    return mask


def build_tower(data, times, n_max):
    """Levels 0..n_max of the tower, with warning-grade envelope checks.

    Each level n >= 1 records in its `envelope` dict (None at level 0) the
    fitted decay slope of the per-node sup norm of k[n] - k[n-1] against the
    predicted -1 + n*eps, fitted over the nodes inside the lowest
    FIT_DECADES of the time window where that norm is positive.  The
    report's status is "ok", "missed" (beyond ENVELOPE_SLACK; this also
    warns) or "not checked" (too few positive nodes, or too short a span,
    for fit_decay_rate).  The tower is returned
    either way: the predicted envelopes carry unknown constants and windows,
    so a miss is a report, not a failure.
    """
    # NaN-safe, and int(inf) is never reached
    if not (0 <= n_max <= MAX_TOWER_LEVEL and int(n_max) == n_max):
        raise ConfigError(f"n_max must be in 0..{MAX_TOWER_LEVEL}, got {n_max}")
    n_max = int(n_max)
    levels = [zeroth_iterate(data, times)]
    eps = data.p.eps
    mask = _fit_window(times)
    for n in range(1, n_max + 1):
        prev = levels[-1]
        k_n, asym_norms = advance_k(n, prev, levels[0])
        e_n = advance_e(n, k_n, prev, levels[0])
        level = IterateSet(n, data, times, e_n, k_n, asym_norms)
        diff = np.array([np.abs(k_r - prev_r).max() for k_r, prev_r in zip(k_n, prev.k)])
        predicted = -1.0 + n * eps
        report = dict(level=n, quantity="k_diff_sup", predicted=predicted, fitted=None, r2=None)
        # exactly-zero differences (the fixed point, or node 0 where the tail
        # closure dropped every component) leave no power law to fit there
        fit = mask & (diff > 0)
        try:
            slope, _, r2 = fit_decay_rate(times.times[fit], diff[fit])
        except ConfigError:
            report["status"] = "not checked"
        else:
            ok = abs(slope - predicted) <= ENVELOPE_SLACK
            report.update(fitted=slope, r2=r2, status="ok" if ok else "missed")
            if not ok:
                warnings.warn(
                    f"tower level {n}: k-difference slope {slope:.3f} outside "
                    f"{predicted:.3f} +- {ENVELOPE_SLACK}",
                    stacklevel=2,
                )
        level.envelope = report
        levels.append(level)
    return levels
