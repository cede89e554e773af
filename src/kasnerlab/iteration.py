"""Approximate-solution tower over a log-uniform time grid.

Level 0 is the closed-form product of the asymptotic data (weighted frame
f t^-p, its inverse h t^p, k = -diag(p)/t).  Each higher level solves two
linear transport problems in time by integrating factors, with the integrals
taken from t = 0 using the power-law tail closure of the log-time quadrature:

  t (k[n] - k[0])      = exp(W) int_0^t exp(-W(tau)) {tau R[n-1]
                                    + w (tau k[0])} dtau,  w = tr k[n-1] - tr k[0]
  t^p_I (e[n] - e[0])  = exp(W_I) int_0^t exp(-W_I(tau)) Omega_I dtau,
                                    W_I from w_I = k[n]_II - k[0]_II (no sum)

with Omega_Ia = t^{p_I} (e[0]_Ia w_I + sum_{C != I} k[n-1]_IC e[n-1]_Ca);
the off-diagonal zeroth k vanishes, which folds the source's two coupling
terms into one.  On spatially homogeneous data every right side is exactly
zero in floating point, so the tower sits at the fixed point bit for bit.

The time update for k preserves symmetry analytically but not in quadrature;
levels store the discarded asymmetry norm per node as a health series and
return the symmetrized field.

A level stores the frame e and k as series and nothing else: the coframe
(the frame's pointwise inverse) and gamma are formed per node on use.
"""

import warnings

import numpy as np

from .asymdata import SLOTS, _coframe_entry
from .errors import ConfigError, NonIntegrableError, SingularFrameError
from .geometry import coframe_from_frame, frame_determinant, gamma_from_frame, spatial_ricci
from .grids import log_time_cumint

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
        h t^p, each slot of h formed here from the data set's f."""
        if self.n > 0:
            return coframe_from_frame(self.e[r])
        data = self.data
        up = np.exp(data.p.as_array() * np.log(self.times.times[r]))  # t^{p_a}
        omega = np.zeros((3, 3) + data.grid.shape)
        for s, (i, a) in enumerate(SLOTS):
            h = _coframe_entry(data.f, s)
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
    """Level 0 in closed form: e = f t^-p, k = -diag(p)/t (coframe h t^p)."""
    pv = data.p.as_array()[None]
    t = times.times.reshape((-1,) + (1,) * (pv.ndim - 1))
    down = np.exp(-pv * np.log(t))  # t^{-p_I}
    e = np.zeros((times.n_steps, 3, 3) + data.grid.shape)
    for s, (i, a) in enumerate(SLOTS):
        # the lower entries, and slots of f that vanish identically (some
        # held as -0.0), stay +0.0
        if data.f[s].any():
            e[:, i, a] = data.f[s] * down[:, i]
    k = np.zeros_like(e)
    diag = np.arange(3)
    k[:, diag, diag] = -pv / t
    return IterateSet(0, data, times, e, k)


# integrating-factor exponent beyond which the window is clearly outside the
# contraction regime; exp() would overflow near 700 anyway
CONTRACTION_LIMIT = 200.0


def _cumint(n, what, samples, times, out=None):
    """log_time_cumint with its aborts prefixed by the quantity and level."""
    try:
        return log_time_cumint(samples, times, out)
    except NonIntegrableError as err:
        raise NonIntegrableError(f"{what} at level {n}: {err}") from err


def _integrating_factor(n, field, w, times):
    """W = int_0^t w dtau for the `field` update at level n, checked against
    CONTRACTION_LIMIT."""
    what = f"{field} integrating factor"
    big_w = _cumint(n, what, w, times)
    worst = float(np.max(np.abs(big_w)))
    if not np.isfinite(worst) or worst > CONTRACTION_LIMIT:
        raise NonIntegrableError(
            f"{what} at level {n}: exponent reached {worst:.3g}; "
            f"the time window extends beyond the contraction regime, reduce t_max"
        )
    return big_w


def advance_k(n, previous, zeroth):
    """Level-n second fundamental form from level n-1 and level 0.

    Returns (k_series, asym_norms): the symmetrized update and the
    per-node sup norm of the part the symmetrization discarded.

    Memory: one series-sized buffer, the integrand, which the quadrature
    overwrites and which then becomes k_series in place, plus one-node slabs.
    """
    if n < 1:
        raise ConfigError(f"advance_k needs n >= 1, got {n}")
    data, times = previous.data, previous.times
    grid = data.grid
    m = times.n_steps
    k0 = zeroth.k

    w = np.einsum("rii...->r...", previous.k) - np.einsum("rii...->r...", k0)
    big_w = _integrating_factor(n, "k", w, times)
    integrand = np.empty((m, 3, 3) + grid.shape)
    for r, t in enumerate(times.times):
        ric = previous.ricci_at(r)
        integrand[r] = np.exp(-big_w[r]) * (t * ric + w[r] * t * k0[r])
    k_n = _cumint(n, "k update", integrand, times, out=integrand)

    asym_norms = np.empty(m)
    for r, t in enumerate(times.times):
        k_r = k_n[r]
        k_r *= np.exp(big_w[r])
        k_r /= t
        np.add(k0[r], k_r, out=k_r)
        asym = 0.5 * (k_r - np.swapaxes(k_r, 0, 1))
        asym_norms[r] = np.abs(asym).max()
        k_r -= asym
    return k_n, asym_norms


def advance_e(n, k_n, previous, zeroth):
    """Level-n frame from the freshly advanced k, level n-1 and level 0.

    The diagonal of k couples at level n (it sits in the integrating
    factor); off-diagonal terms enter the source at level n-1, as the
    scheme's update order requires.  Returns e_series; each node's frame
    is checked to be invertible, the coframe itself is not formed.

    Memory: as in advance_k, with e_series in place of k_series.
    """
    if n < 1:
        raise ConfigError(f"advance_e needs n >= 1, got {n}")
    data, times = previous.data, previous.times
    grid = data.grid
    m = times.n_steps
    pv = data.p.as_array()
    e0, k0 = zeroth.e, zeroth.k

    w_diag = np.einsum("rii...->ri...", k_n) - np.einsum("rii...->ri...", k0)
    big_w = _integrating_factor(n, "frame", w_diag, times)

    integrand = np.empty((m, 3, 3) + grid.shape)
    for r, t in enumerate(times.times):
        t_up = np.exp(pv * np.log(t))  # t^{p_I}
        k_off = previous.k[r].copy()
        for i in range(3):
            k_off[i, i] = 0.0
        source = e0[r] * w_diag[r][:, None] + np.einsum("ic...,ca...->ia...", k_off, previous.e[r])
        integrand[r] = np.exp(-big_w[r])[:, None] * t_up[:, None] * source
    e_n = _cumint(n, "frame update", integrand, times, out=integrand)

    for r, t in enumerate(times.times):
        t_down = np.exp(-pv * np.log(t))
        e_n[r] *= t_down[:, None] * np.exp(big_w[r])[:, None]
        np.add(e0[r], e_n[r], out=e_n[r])
        try:
            frame_determinant(e_n[r])
        except SingularFrameError as err:
            raise SingularFrameError(f"tower level {n} at t={t:.6e}: {err}") from err
    return e_n


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
