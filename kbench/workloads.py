"""The benchmark workloads: set-up, timed phase, correctness check and digest.

Each workload object offers
  setup(seed, member) -> inputs  builds the inputs of one repetition from
                                 panel member `member` (untimed);
  run(inputs) -> out             the timed phase, library calls only;
  check(out) -> [problem, ...]   invariants of the outputs, empty when correct;
  digest(out) -> dict            compact sup norms, including "resid_scaled";
  panel                          the number of panel members.

The warm-up runs member 0; the timed repetitions cycle through the members,
each running at least once, and resid_scaled is the mean over the members'
first repetitions, so it depends on the seed and the code but not on how
many repetitions fit in a run.  Members differ in data only, so every
repetition does the same work.

Digests leave out quantities that are zero only to rounding (torsion, the
rounding-level seam entries): their checks cover them, and their rounding
noise would swamp a relative comparison between commits.

The checks test invariants, not a frozen output, so a later accuracy fix
does not read as a failure.  The time grid is LogTimeGrid(1e-4, 1e-1, 41) and
the spatial grid is periodic with side 2 pi throughout; `n` can be lowered so
the tests can exercise the checks cheaply.
"""

import numpy as np

from kasnerlab import asymdata, families, geometry, iteration
from kasnerlab.errors import KasnerLabError
from kasnerlab.grids import LogTimeGrid, SpatialGrid

DELTA = 2.0 * np.pi
# torsion of a gamma built by gamma_from_frame, relative to sup|gamma|
TORSION_TOL = 1e-12
# relative difference of two routes to the same coframe (measured 3e-16)
OMEGA_ROUNDING = 1e-15
# seam entries whose transport right side vanishes in floating point
SEAM_ROUNDING = 1e-12
# the u-wave kappa_1^3 loop integral vanishes analytically but carries the
# fourth-order stencil error, about 4e-5 h^4 at n = 8..96; this allows 25x
SEAM_TRUNCATION = 1e-3


def time_grid():
    return LogTimeGrid(1e-4, 1e-1, 41)


def sup(a):
    return float(np.max(np.abs(a)))


def node_sups(series):
    """Per-node sup norm of a series whose time-node axis leads."""
    return np.abs(series).reshape(series.shape[0], -1).max(axis=1).tolist()


def _finite(named):
    return [f"{name} has non-finite values" for name, a in named if not np.all(np.isfinite(a))]


def _level_problems(level):
    """Finite series, and FrameState(check=True) accepts the first, middle
    and last node with the stored coframe."""
    problems = _finite((f"level {level.n} {f}", getattr(level, f)) for f in ("e", "omega", "k"))
    m = level.times.n_steps
    for r in (0, m // 2, m - 1):
        e, omega = level.e[r], level.omega[r]
        try:
            gamma = geometry.gamma_from_frame(e, omega, level.grid)
            geometry.FrameState(level.grid, e, omega, level.k[r], gamma, level.times.times[r], check=True)
        except KasnerLabError as exc:
            problems.append(f"level {level.n} node {r}: {exc}")
    return problems


def _level_digest(level):
    return {"k_sup": node_sups(level.k), "e_sup": node_sups(level.e)}


def _homogeneous_problems():
    """A homogeneous tower sits at its fixed point: every level's e and k
    equal level 0 bit for bit.  Levels >= 1 invert e for omega where level 0
    uses the closed form h t^p, so omega agrees only to rounding."""
    levels = iteration.build_tower(families.homogeneous_dataset(SpatialGrid(DELTA, 8)), time_grid(), 2)
    base = levels[0]
    problems = [
        f"homogeneous level {lv.n} {f} differs from level 0"
        for lv in levels[1:]
        for f in ("e", "k")
        if not np.array_equal(getattr(lv, f), getattr(base, f))
    ]
    for lv in levels[1:]:
        if not np.all(np.abs(lv.omega - base.omega) <= OMEGA_ROUNDING * np.abs(base.omega)):
            problems.append(f"homogeneous level {lv.n} omega differs from level 0 beyond rounding")
    return problems


class TowerUWave:
    """build_tower on the u-wave family: iteration, geometry and grids."""

    name = "tower_uwave32"
    panel = 1
    n_max = 2  # level 3 aborts spuriously (ROADMAP item 3)

    def __init__(self, n=32):
        self.n = n

    def setup(self, seed, member):
        return SpatialGrid(DELTA, self.n), time_grid()

    def run(self, inputs):
        grid, times = inputs
        return iteration.build_tower(families.u_wave_dataset(grid), times, self.n_max)

    def check(self, levels):
        problems = _finite((f"level {lv.n} asym_norms", lv.asym_norms) for lv in levels[1:])
        for lv in levels:
            problems += _level_problems(lv)
        return problems + _homogeneous_problems()

    def digest(self, levels):
        top = levels[-1]
        t_min = top.times.times[0]
        state = geometry.FrameState.from_frame(top.grid, top.e[0], top.k[0], t_min)
        return {
            "levels": [_level_digest(lv) for lv in levels],
            "resid_scaled": t_min**2 * sup(geometry.hamiltonian_residual(state).values),
        }


class HealthRandom:
    """Health checks of the zeroth iterate of random data: geometry and grids only."""

    name = "health_random24"
    # resid_scaled of one random data set varies by seed with a quartile
    # spread of 0.14 (16 seeds), too near its bound; over ten seeds the mean
    # of six data sets spreads by 0.08 (median of 5000 resamples of 160 sets).
    panel = 6

    def __init__(self, n=24):
        self.n = n

    def setup(self, seed, member):
        # member 0 is random_dataset(seed=seed): SeedSequence pads with zeros
        data = families.random_dataset(SpatialGrid(DELTA, self.n), seed=[seed, member])
        return iteration.zeroth_iterate(data, time_grid())

    def run(self, level):
        grid, t = level.grid, level.times.times
        states = [geometry.FrameState.from_frame(grid, level.e[r], level.k[r], t[r]) for r in range(t.size)]
        return {
            "level": level,
            "gamma": [s.gamma for s in states],
            "ham": [geometry.hamiltonian_residual(s).values for s in states],
            "mom": [geometry.momentum_residual_evolved(s).values for s in states],
            "torsion": [geometry.torsion_residual(s).values for s in states],
            "ricci4": geometry.spacetime_ricci(states),
        }

    def check(self, out):
        r4 = out["ricci4"]
        named = [(f"{key} node {r}", a) for key in ("ham", "mom", "torsion") for r, a in enumerate(out[key])]
        named += [("ricci4 " + f, getattr(r4, f)) for f in ("r4_ij", "r4_00", "r4_0i", "k_tilde")]
        problems = _finite(named) + _level_problems(out["level"])
        for r, (tor, gamma) in enumerate(zip(out["torsion"], out["gamma"])):
            if not sup(tor) <= TORSION_TOL * max(sup(gamma), 1.0):
                problems.append(f"torsion at node {r} is {sup(tor):.3e}, not rounding")
        return problems

    def digest(self, out):
        t = out["level"].times.times
        ham = [sup(a) for a in out["ham"]]
        return {
            "level0": _level_digest(out["level"]),
            "ham_sup": ham,
            "mom_sup": [sup(a) for a in out["mom"]],
            "ricci4_sup": out["ricci4"].sup_norms().tolist(),
            "resid_scaled": max(float(tr) ** 2 * h for tr, h in zip(t, ham)),
        }


class Transport:
    """x^3 transports and metric/frame momentum residuals: asymdata and grids."""

    name = "transport_n96"
    panel = 1

    def __init__(self, n=96):
        self.n = n

    def setup(self, seed, member):
        return SpatialGrid(DELTA, self.n)

    def run(self, grid):
        uwave = families.u_wave_dataset(grid)
        layered = families.layered_dataset(grid)
        return {
            "uwave": uwave,
            "layered": layered,
            "mom_uwave": [asymdata.momentum_residual(uwave, i).values for i in (1, 2, 3)],
            "mom_layered": [asymdata.momentum_residual(layered, i).values for i in (1, 2, 3)],
            "frame_uwave": [asymdata.frame_momentum_residual(uwave, i).values for i in (1, 2, 3)],
        }

    def check(self, out):
        uwave, layered = out["uwave"], out["layered"]
        named = [
            (f"{key} {i + 1}", a)
            for key in ("mom_uwave", "mom_layered", "frame_uwave")
            for i, a in enumerate(out[key])
        ]
        named += [(f"{name} c", d.c) for name, d in (("uwave", uwave), ("layered", layered))]
        problems = _finite(named)
        if layered.seam.max_jump != 0.0:
            problems.append(f"layered seam {layered.seam!r} is not exactly zero")
        seam = uwave.seam
        rounding = max(seam.c11_jump, seam.kappa23_jump) <= SEAM_ROUNDING
        if not (rounding and seam.kappa13_jump <= SEAM_TRUNCATION * uwave.grid.h**4):
            problems.append(f"u-wave seam {seam!r} above rounding / truncation level")
        return problems

    def digest(self, out):
        return {
            "mom_uwave_sup": [sup(a) for a in out["mom_uwave"]],
            "mom_layered_sup": [sup(a) for a in out["mom_layered"]],
            "frame_uwave_sup": [sup(a) for a in out["frame_uwave"]],
            "c_sup": [sup(out[name].c) for name in ("uwave", "layered")],
            "resid_scaled": max(sup(a) for a in out["mom_uwave"]),
        }


WORKLOADS = {w.name: w for w in (TowerUWave(), HealthRandom(), Transport())}


def largest_array_mb(obj, _seen=None):
    """Size of the largest ndarray reachable from an output, in MB."""
    seen = set() if _seen is None else _seen
    if id(obj) in seen:
        return 0.0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes / 1e6
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        children = getattr(obj, "__dict__", {}).values()
    return max((largest_array_mb(c, seen) for c in children), default=0.0)
