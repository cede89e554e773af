"""Tests for the approximate-solution tower: the closed-form level 0, the
homogeneous fixed point, bit identity with the whole-series formulas of its
log-time recurrence and across thread counts, agreement to rounding with
the whole-window passes the recurrence replaced, each update against its
ODE, the tower's working memory, and the decay-rate fit."""

import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from kasnerlab import iteration
from kasnerlab.asymdata import AsymptoticDataSet, frame_matrix_from_metric
from kasnerlab.errors import ConfigError, NonIntegrableError, SingularFrameError
from kasnerlab.geometry import FrameState, torsion_residual
from kasnerlab.families import homogeneous_dataset, layered_dataset, random_dataset, u_wave_dataset
from kasnerlab.grids import LOCALIZED, TAIL_NOISE_FLOOR, LogTimeGrid, SpatialGrid
from kasnerlab.iteration import (
    IterateSet,
    _each_node,
    advance_e,
    advance_k,
    build_tower,
    fit_decay_rate,
    zeroth_iterate,
)

from oracles import (
    gamma_reference,
    ode_reference,
    spatial_ricci_reference,
    tower_reference,
    tower_whole_window_reference,
    unpack_slots,
    zeroth_series_reference,
)

DELTA = 2.0 * math.pi


def time_grid():
    return LogTimeGrid(1e-4, 1e-1, 41)


class TestZerothIterate:
    def test_matches_node_by_node_closed_form_bitwise(self):
        data = u_wave_dataset(SpatialGrid(DELTA, 8))
        level = zeroth_iterate(data, time_grid())
        for got, want in zip((level.e, level.omega, level.k), zeroth_series_reference(data, time_grid())):
            # tobytes also tells +0.0 from -0.0
            assert got.tobytes() == want.tobytes()


class TestHomogeneousTower:
    def test_levels_sit_at_the_fixed_point(self):
        levels = build_tower(homogeneous_dataset(SpatialGrid(DELTA, 8)), time_grid(), 2)
        base = levels[0]
        assert [lv.n for lv in levels] == [0, 1, 2]
        assert base.envelope is None
        for lv in levels[1:]:
            assert np.array_equal(lv.e, base.e)
            assert np.array_equal(lv.k, base.k)
            # levels >= 1 invert e where level 0 uses h t^p: equal to rounding
            # (measured 3e-16 relative)
            assert np.all(np.abs(lv.omega - base.omega) <= 1e-15 * np.abs(base.omega))
            assert lv.envelope["fitted"] is None
            assert lv.envelope["status"] == "not checked"


class TestTowerMatchesWholeSeriesFormulas:
    @pytest.mark.parametrize("family", [u_wave_dataset, layered_dataset])
    def test_levels_bitwise(self, family):
        data = family(SpatialGrid(DELTA, 8))
        levels = build_tower(data, time_grid(), 2)
        reference = tower_reference(data, time_grid(), 2)
        assert len(levels) == len(reference) + 1
        for level, (e, omega, k, asym_norms, slope) in zip(levels[1:], reference):
            assert level.e.tobytes() == e.tobytes()
            assert level.omega.tobytes() == omega.tobytes()
            assert level.k.tobytes() == k.tobytes()
            assert level.asym_norms.tobytes() == asym_norms.tobytes()
            assert level.envelope["fitted"] == slope

    @pytest.mark.filterwarnings("ignore:tower level")
    @pytest.mark.parametrize("family", [u_wave_dataset, layered_dataset])
    def test_recurrence_matches_the_whole_window_passes_to_rounding(self, family):
        # the log-time step is the trapezoid of exp(-W) m, times exp(W),
        # regrouped: [measured] at most 1.6e-14 of a level's correction
        # (u-wave level 2 e; layered 2.8e-16)
        data = family(SpatialGrid(DELTA, 8))
        levels = build_tower(data, time_grid(), 2)
        reference = tower_whole_window_reference(data, time_grid(), 2)
        for level, (e, omega, k, asym_norms, slope) in zip(levels[1:], reference):
            for got, want, base in ((level.e, e, levels[0].e), (level.k, k, levels[0].k)):
                assert np.max(np.abs(got - want)) <= 2e-14 * np.max(np.abs(want - base))

    @pytest.mark.filterwarnings("ignore:tower level")
    @pytest.mark.parametrize(
        "family, grid, times",
        [
            # the level-1 frame integrating factor's head is 3.3e-15 at (0, 5, 4, 4)
            (layered_dataset, SpatialGrid(DELTA, 10, LOCALIZED), time_grid()),
            # the level-2 k integrating factor's head is 8.4e-15 at (8, 4, 4)
            (layered_dataset, SpatialGrid(DELTA, 16, LOCALIZED), time_grid()),
            # the level-2 frame-update head is 1.3e-18; no abort at n = 8 to 12
            (u_wave_dataset, SpatialGrid(DELTA, 16), LogTimeGrid(1e-6, 1e-3, 41)),
        ],
        ids=["layered-localized-10", "layered-localized-16", "uwave-near-window"],
    )
    def test_heads_at_the_rounding_floor_do_not_abort(self, family, grid, times):
        # the seed's rule judged each head against its own component's series
        # alone, so these heads of rounding noise aborted as non-integrable
        data = family(grid)
        with pytest.raises(NonIntegrableError):
            tower_reference(data, times, 2)
        levels = build_tower(data, times, 2)
        reference = tower_reference(data, times, 2, noise_floor=1e-10)
        assert len(levels) == 3 == len(reference) + 1
        for level, (e, omega, k, asym_norms, slope) in zip(levels[1:], reference):
            assert level.e.tobytes() == e.tobytes()
            assert level.k.tobytes() == k.tobytes()
            assert np.all(np.isfinite(level.e)) and np.all(np.isfinite(level.k))

    def test_a_flat_head_above_the_rounding_floor_still_aborts(self):
        # u-wave level 3 runs away (its frame-update integrand reaches 4.2e40
        # at t_max); the flat head 0.13 it leaves at t_min is not noise.  The
        # reference takes the library's noise floor: at floor 0 it may stop
        # first on a noise head, whose place is set by rounding
        data = u_wave_dataset(SpatialGrid(DELTA, 8))
        with pytest.raises(NonIntegrableError) as want:
            tower_reference(data, time_grid(), 3, noise_floor=TAIL_NOISE_FLOOR)
        want_text = r"^frame update at level 3: non-integrable .* component \(2, 2, 2, 0, 2\).*\|m0\|=1\.316e-01"
        with pytest.raises(NonIntegrableError, match=want_text) as got:
            build_tower(data, time_grid(), 3)
        assert str(got.value) == str(want.value)

    def test_abort_inside_the_quadrature_keeps_its_text(self):
        # off-constraint random data abort in the level-1 k update; this pins
        # the error path, not whether the abort is right
        data = random_dataset(SpatialGrid(DELTA, 12), seed=3)
        with pytest.raises(NonIntegrableError) as want:
            tower_reference(data, time_grid(), 2)
        with pytest.raises(NonIntegrableError) as got:
            build_tower(data, time_grid(), 2)
        assert str(got.value) == str(want.value)

    def test_random_data_abort_on_a_turning_point_of_the_head(self):
        # the level-1 k integrand is tau R[0], so its head m = t^2 R[0]; at the
        # aborting component |t^2 R[0]| falls toward t = 0 (about as t^0.2
        # below 1e-6: integrable, not a log divergence) and peaks near
        # t_min = 1e-4, where the two-node tail fit reads it as flat
        data = random_dataset(SpatialGrid(DELTA, 12), seed=3)
        want = r"^k update at level 1: non-integrable growth toward t=0 in component \(1, 1, 2, 11, 7\)"
        with pytest.raises(NonIntegrableError, match=want):
            build_tower(data, time_grid(), 2)
        times = LogTimeGrid(1e-10, 1e-3, 8)
        zeroth = zeroth_iterate(data, times)
        head = np.abs([t * t * zeroth.ricci_at(r)[1, 1, 2, 11, 7] for r, t in enumerate(times.times)])
        assert np.all(np.diff(head[:-1]) > 0) and head[-1] < head[-2]
        assert head[0] < 0.2 * head[-2]


class TestIntegratingFactorAbort:
    def test_abort_names_the_level_and_the_field(self):
        # a planted k = k0 + diag(c)/t makes tau*w constant, so the integrating
        # factor's integrand does not decay toward t = 0
        data, times = homogeneous_dataset(SpatialGrid(DELTA, 8)), time_grid()
        zeroth = zeroth_iterate(data, times)
        planted = zeroth.k.copy()
        for i, c in enumerate((0.1, 0.2, 0.3)):
            planted[:, i, i] += c / times.times[:, None, None, None]
        previous = IterateSet(1, data, times, zeroth.e, planted)
        with pytest.raises(NonIntegrableError, match="^k integrating factor at level 2: non-integrable"):
            advance_k(2, previous, zeroth)
        with pytest.raises(NonIntegrableError, match="^frame integrating factor at level 2: non-integrable"):
            advance_e(2, planted, zeroth, zeroth)


def _planted_updates(m, delta, beta):
    """advance_k and advance_e on m nodes of the standard window, from
    constant data with off-diagonal frame entries and a planted previous
    level k = k0 + diag(delta) t^(beta - 1).

    The frame is constant in space, so Ricci is exactly zero and each
    update is a scalar linear ODE,
      y = t (k[n] - k0)_II:        y' = w y - p_I w,      w = sum delta t^(beta-1)
      y = t^p_I (e[n] - e0)_Ia:    y' = w_I y + f_Ia w_I, w_I = delta_I t^(beta-1)
    Returns the nodes t, the exponents p_I, the frame coefficients f_Ia and
    each update's series at one grid point: k_ys[I] = t (k[n] - k0)_II and
    e_ys[I, a] = t^p_I (e[n] - e0)_Ia for a >= I."""
    grid = SpatialGrid(DELTA, 8)
    p = homogeneous_dataset(grid).p
    c = np.array([1.0, 1.0, 1.0, 0.2, -0.1, 0.15])  # c11, c22, c33, c12, c23, c13
    data = AsymptoticDataSet(p, c[:, None, None, None] * np.ones(grid.shape))
    f = unpack_slots(frame_matrix_from_metric(data.c), symmetric=False)
    times = LogTimeGrid(1e-4, 1e-1, m)
    t = times.times
    zeroth = zeroth_iterate(data, times)
    planted = zeroth.k.copy()
    for i in range(3):
        planted[:, i, i] += delta[i] * t[:, None, None, None] ** (beta - 1.0)
    previous = IterateSet(1, data, times, zeroth.e, planted)
    k_n, _ = advance_k(2, previous, zeroth)
    e_n = advance_e(2, planted, previous, zeroth)

    def at_a_point(y):
        assert np.all(y == y[:, :1, :1, :1])  # spatially constant
        return y[:, 0, 0, 0]

    p_i = [float(p.as_array()[i, 0, 0, 0]) for i in range(3)]
    k_ys = [at_a_point(t[:, None, None, None] * (k_n[:, i, i] - zeroth.k[:, i, i])) for i in range(3)]
    e_ys = {
        (i, a): at_a_point(t[:, None, None, None] ** p_i[i] * (e_n[:, i, a] - zeroth.e[:, i, a]))
        for i in range(3)
        for a in range(i, 3)
    }
    return t, p_i, f[:, :, 0, 0, 0], k_ys, e_ys


def _update_errors(m, delta=(0.3, -0.2, 0.5), beta=0.5):
    """Largest gaps of advance_k and advance_e from DOP853, relative to the
    largest update, on m nodes of the standard window, for the planted
    updates of _planted_updates.  Each ODE starts from the library's node-0
    value, its tail closure, so the gap from node 1 on is the log-time
    trapezoid's alone."""
    t, p, f, k_ys, e_ys = _planted_updates(m, delta, beta)

    def gap(y, w_func, forcing):
        want = ode_reference(w_func, forcing, t, y[0], t[0]).y[0]
        return np.max(np.abs(want[1:] - y[1:])) / np.max(np.abs(y))

    def w(s):
        return sum(delta) * s ** (beta - 1.0)

    gaps_k, gaps_e = [], []
    for i in range(3):
        gaps_k.append(gap(k_ys[i], w, lambda s: -p[i] * w(s)))
        w_i = lambda s: delta[i] * s ** (beta - 1.0)
        for a in range(i, 3):
            gaps_e.append(gap(e_ys[i, a], w_i, lambda s: f[i, a] * w_i(s)))
    return max(gaps_k), max(gaps_e)


class TestLevelUpdatesMatchTheOde:
    def test_trapezoid_error_is_second_order(self):
        # [measured] k: 4.19e-4 at 41 nodes, 1.05e-4 at 81; e: 6.88e-4 and
        # 1.72e-4: 0.014 h_s^2 and 0.023 h_s^2, observed order 2.00
        gaps = {m: _update_errors(m) for m in (41, 81)}
        for m, (gap_k, gap_e) in gaps.items():
            h_s = math.log(1e3) / (m - 1)
            assert gap_k <= 0.02 * h_s**2
            assert gap_e <= 0.03 * h_s**2
        for coarse, fine in zip(gaps[41], gaps[81]):
            assert math.log2(coarse / fine) >= 1.9

    def test_node_zero_matches_the_integral_from_t_zero(self):
        # from y(0) = 0 the planted ODEs integrate in closed form:
        # y = -p_I (exp(W) - 1) and y = f_Ia (exp(W_I) - 1), W = int_0^t w.
        # Node 0 is exp(W_0) times the two-node tail of the normalized head
        # exp(-W) m, a power law only to O(W); as h_s -> 0 that tail reads
        # the integral high by W(t_min)/2 of it.  [measured] 0.5425 to 0.553
        # W(t_min) at 41 nodes (0.60 at 21 nodes, 0.52 at 161); without the
        # factor exp(W_0) it reads -0.45
        delta, beta = (0.3, -0.2, 0.5), 0.5
        t, p, f, k_ys, e_ys = _planted_updates(41, delta, beta)
        big_w = [d * t[0] ** beta / beta for d in delta]
        for i in range(3):
            want = -p[i] * math.expm1(sum(big_w))
            assert 0.5 <= (k_ys[i][0] - want) / (want * sum(big_w)) <= 0.6
            for a in range(i, 3):
                want = f[i, a] * math.expm1(big_w[i])
                assert 0.5 <= (e_ys[i, a][0] - want) / (want * big_w[i]) <= 0.6


def _usable_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def _singular_at(nodes):
    """Homogeneous level 0, and a copy of it whose frame is singular at grid
    point (2, 5, 1) of each of the given time nodes; with k at level 0 every
    frame source vanishes, so e_n = e0 there."""
    data, times = homogeneous_dataset(SpatialGrid(DELTA, 8)), time_grid()
    zeroth = zeroth_iterate(data, times)
    e = zeroth.e.copy()
    for r in nodes:
        e[r, :, :, 2, 5, 1] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 1.5]]
    return zeroth, IterateSet(0, data, times, e, zeroth.k)


class TestSingularFrameAbort:
    def test_frame_update_names_the_level_and_the_node(self):
        zeroth, singular = _singular_at(range(time_grid().n_steps))
        want = r"^tower level 1 at t=1\.000000e-04: frame determinant .* at grid point \(2, 5, 1\)$"
        with pytest.raises(SingularFrameError, match=want):
            advance_e(1, zeroth.k, singular, singular)


class TestNodeThreads:
    """A level's per-node loops run on one thread per usable core (two forced
    here, whatever the host has) with the bits and aborts of one thread."""

    @pytest.mark.filterwarnings("ignore:tower level")
    @pytest.mark.parametrize("family", [u_wave_dataset, layered_dataset])
    def test_levels_bitwise_on_one_and_two_cores(self, family, monkeypatch):
        # the threads of one _each_node call run at once, so their idents
        # are distinct; across calls an ident may be reused or not
        data = family(SpatialGrid(DELTA, 8))
        towers, threads = [], []
        for cores in (1, 2):
            _usable_cores(monkeypatch, cores)
            per_call = []

            def recording_each_node(fn, m, per_call=per_call):
                seen = set()

                def recording(r):
                    seen.add(threading.get_ident())
                    fn(r)

                _each_node(recording, m)
                per_call.append(len(seen))

            monkeypatch.setattr(iteration, "_each_node", recording_each_node)
            towers.append(build_tower(data, time_grid(), 2))
            threads.append(per_call)
        # two levels, two updates each, a source and a finish per update
        assert threads == [[1] * 8, [2] * 8]
        for one, two in zip(*towers):
            assert one.e.tobytes() == two.e.tobytes()
            assert one.k.tobytes() == two.k.tobytes()
            if one.n:
                assert one.asym_norms.tobytes() == two.asym_norms.tobytes()

    @pytest.mark.filterwarnings("ignore:tower level")
    def test_builds_where_the_platform_has_no_affinity_call(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity: os.cpu_count() stands in
        data = u_wave_dataset(SpatialGrid(DELTA, 8))
        _usable_cores(monkeypatch, 1)
        one_core = build_tower(data, time_grid(), 2)
        monkeypatch.delattr(os, "sched_getaffinity")
        for one, got in zip(one_core, build_tower(data, time_grid(), 2)):
            assert one.e.tobytes() == got.e.tobytes()
            assert one.k.tobytes() == got.k.tobytes()

    # round robin over two threads puts node 3 and node 31 on the worker and
    # node 4 and node 30 on the calling thread; halves would split them too
    @pytest.mark.parametrize("nodes", [(3, 30), (4, 31)])
    def test_abort_names_the_lowest_singular_node(self, nodes, monkeypatch):
        zeroth, singular = _singular_at(nodes)
        texts = []
        for cores in (1, 2):
            _usable_cores(monkeypatch, cores)
            with pytest.raises(SingularFrameError) as got:
                advance_e(1, zeroth.k, singular, singular)
            texts.append(str(got.value))
        t = zeroth.times.times[nodes[0]]
        assert texts[0] == texts[1]
        assert texts[0].startswith(f"tower level 1 at t={t:.6e}: frame determinant")

    def test_no_worker_outlives_an_abort_on_the_calling_thread(self, monkeypatch):
        zeroth, singular = _singular_at([0])
        _usable_cores(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(SingularFrameError, match=r"^tower level 1 at t=1\.000000e-04: "):
            advance_e(1, zeroth.k, singular, singular)
        assert threading.active_count() == before

    def test_each_node_runs_below_the_lowest_failure_and_raises_it(self, monkeypatch):
        _usable_cores(monkeypatch, 3)
        ran = set()

        def fn(r):
            ran.add(r)
            if r in (7, 11):
                raise ValueError(f"node {r}")
            if r == 9:
                raise KeyError(r)

        with pytest.raises(ValueError, match="^node 7$"):
            _each_node(fn, 20)
        # each share stops at its first failure: 7 on share 1, 9 on share 0
        assert set(range(9)) <= ran
        assert 10 not in ran and 12 not in ran
        ran.clear()
        _each_node(ran.add, 2)  # fewer nodes than cores
        assert ran == {0, 1}


class TestTowerMatchesAllComponentGeometry:
    @pytest.mark.parametrize("family", [u_wave_dataset, layered_dataset])
    def test_levels_within_rounding(self, family, monkeypatch):
        # the geometry kernel sums in another order than the all-component
        # formulas; through two levels of quadrature the gap stays at rounding
        # (measured: u-wave level 2, 2.4e-13 in omega at node 39 and 9.1e-14
        # in e)
        data = family(SpatialGrid(DELTA, 8))
        levels = build_tower(data, time_grid(), 2)

        def all_component_ricci_at(self, index):
            e, omega = self.e[index], self.coframe_at(index)
            gamma = gamma_reference(e, omega, self.grid)
            return spatial_ricci_reference(e, gamma, self.grid)

        monkeypatch.setattr(IterateSet, "ricci_at", all_component_ricci_at)
        reference = build_tower(data, time_grid(), 2)
        for level, want in zip(levels[1:], reference[1:]):
            for field in ("e", "omega", "k"):
                got, ref = getattr(level, field), getattr(want, field)
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestTowerMemory:
    def test_levels_store_only_the_frame_and_k(self):
        levels = build_tower(u_wave_dataset(SpatialGrid(DELTA, 8)), time_grid(), 2)
        for lv in levels:
            stored = {name for name, value in vars(lv).items() if isinstance(value, np.ndarray)}
            assert stored == ({"e", "k", "asym_norms"} if lv.n else {"e", "k"})

    @staticmethod
    def _peak(monkeypatch, cores):
        """Traced peak of a u-wave tower at n = 8 on the given usable cores,
        and the tower."""
        _usable_cores(monkeypatch, cores)
        data = u_wave_dataset(SpatialGrid(DELTA, 8))
        tracemalloc.start()
        try:
            levels = build_tower(data, time_grid(), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, levels

    def test_working_memory_beyond_the_returned_series(self, monkeypatch):
        # beyond the stored e and k of every level, the last frame update
        # holds one integrand, which the quadrature overwrites in place to
        # become e_n; everything else is one-node slabs per thread or 1/3-size
        # integrating factors (measured 1.00 series on one and two cores)
        peak, levels = self._peak(monkeypatch, 2)
        series = levels[0].e.nbytes
        assert peak <= (2 * len(levels) + 1.25) * series

    def test_each_extra_thread_holds_one_node(self, monkeypatch):
        # a node's Ricci evaluation is the largest per-node working set (10.2
        # node slabs at n = 8, 9.4 at n = 32); three more threads raised the
        # tower's peak by 8.1 slabs (measured)
        one, levels = self._peak(monkeypatch, 1)
        four, _ = self._peak(monkeypatch, 4)
        tracemalloc.start()
        try:
            levels[0].ricci_at(20)
            node = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert four - one <= 3 * node


class TestHealthMemory:
    def test_health_pass_holds_three_series(self):
        # each state of a health pass views e and k in the level and holds
        # its own coframe and packed gamma (9 grid fields); with each node's
        # packed torsion (9 more) that is 3 series (measured 3.07 with the
        # Python objects; 7.07 with 27-slot gamma and torsion)
        grid = SpatialGrid(DELTA, 8)
        level = zeroth_iterate(random_dataset(grid, seed=0), time_grid())
        t = level.times.times
        tracemalloc.start()
        try:
            states = [FrameState.from_frame(grid, level.e[r], level.k[r], t[r]) for r in range(t.size)]
            torsion = [torsion_residual(st).values for st in states]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 3.25 * level.e.nbytes
        field = np.zeros(grid.shape).nbytes
        assert {st.gamma.nbytes for st in states} == {c.nbytes for c in torsion} == {9 * field}


class TestEnvelopeReport:
    def test_u_wave_fits_inside_the_slack(self):
        levels = build_tower(u_wave_dataset(SpatialGrid(DELTA, 8)), time_grid(), 2)
        assert [lv.envelope["status"] for lv in levels[1:]] == ["ok", "ok"]

    def test_layered_fit_runs_on_the_positive_nodes_and_misses(self):
        # the tail closure leaves k[n] - k[n-1] exactly 0.0 at node 0; the
        # other nodes grow with t (fitted slopes near +2 against -0.86, -0.71)
        data = layered_dataset(SpatialGrid(DELTA, 8))
        with pytest.warns(UserWarning, match="k-difference slope"):
            levels = build_tower(data, time_grid(), 2)
        for lv in levels[1:]:
            report = lv.envelope
            assert report["status"] == "missed"
            assert report["fitted"] > 1.5


class TestFitDecayRate:
    def test_recovers_planted_slope(self):
        t = np.logspace(-4, -1, 20)
        slope, intercept, r2 = fit_decay_rate(t, 3.0 * t**-0.7)
        assert slope == pytest.approx(-0.7, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-11)
        assert r2 == 1.0

    def test_too_few_samples_rejected(self):
        t = np.logspace(-4, -1, 5)
        with pytest.raises(ConfigError, match="at least 6 samples"):
            fit_decay_rate(t, t**-0.5)

    def test_short_span_rejected(self):
        t = np.logspace(-4, -2.6, 10)  # 1.4 decades
        with pytest.raises(ConfigError, match="1.5 decades"):
            fit_decay_rate(t, t**-0.5)

    # a NaN norm returned (nan, nan, nan); an inf norm warned, then fitted
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_norms_rejected(self, bad):
        t = np.logspace(-4, -1, 10)
        norms = t**-0.5
        norms[3] = bad
        with pytest.raises(ConfigError, match="strictly positive"):
            fit_decay_rate(t, norms)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_times_rejected(self, bad):
        # a zero node printed LAPACK errors, then raised LinAlgError
        t = np.logspace(-4, -1, 10)
        norms = t**-0.5
        t[0] = bad
        with pytest.raises(ConfigError, match="finite, strictly positive times and norms"):
            fit_decay_rate(t, norms)


class TestLevelIndexGuards:
    @pytest.mark.parametrize("n_max", [-1, 5, 0.5, 1.5])
    def test_tower_depth_outside_the_supported_levels_rejected(self, n_max):
        with pytest.raises(ConfigError, match=r"n_max must be in 0\.\.4, got "):
            build_tower(homogeneous_dataset(SpatialGrid(DELTA, 8)), time_grid(), n_max)

    def test_integral_float_depth_builds_those_levels(self):
        levels = build_tower(homogeneous_dataset(SpatialGrid(DELTA, 8)), time_grid(), 2.0)
        assert [lv.n for lv in levels] == [0, 1, 2]

    def test_level_updates_start_at_level_one(self):
        zeroth = zeroth_iterate(homogeneous_dataset(SpatialGrid(DELTA, 8)), time_grid())
        with pytest.raises(ConfigError, match="advance_k needs n >= 1, got 0"):
            advance_k(0, zeroth, zeroth)
        with pytest.raises(ConfigError, match="advance_e needs n >= 1, got 0"):
            advance_e(0, zeroth.k, zeroth, zeroth)
