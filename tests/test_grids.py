"""Tests for the numerical substrate: grids, FD stencils and log-time
quadrature. Expected values are closed forms computed in the test, never copied
from the implementation.
"""

import math
import tracemalloc

import numpy as np
import pytest

from kasnerlab.errors import ConfigError, NonIntegrableError
from kasnerlab.grids import (
    LogTimeGrid,
    SpatialGrid,
    TensorField,
    _stencil,
    fd_diff,
    fd_time_diff,
    log_time_cumint,
)

from oracles import cumint_reference, cumsum_cumint_reference, fd_time_diff_reference, roll_stencil_reference

DELTA = 2 * math.pi


def make_grid(n=16, mode="periodic"):
    return SpatialGrid(DELTA, n, mode)


def stencil(values, axis, h, mode="periodic"):
    """The stencil kernel at any spacing, on any shape, along a trailing
    axis counted as fd_diff counts it."""
    return _stencil(values, values.ndim - 3 + (axis - 1), h, mode)


class TestSpatialGrid:
    def test_spacing(self):
        g = make_grid(16)
        assert g.h == pytest.approx(DELTA / 16)
        assert g.shape == (16, 16, 16)

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigError):
            SpatialGrid(1.0, 4)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            SpatialGrid(1.0, 16, "open")

    @pytest.mark.parametrize("delta", [math.inf, math.nan, -1.0])
    def test_non_finite_or_non_positive_delta_rejected(self, delta):
        # an infinite delta gave h = inf and coordinates [nan, inf, ...]
        with pytest.raises(ConfigError, match="delta must be positive and finite"):
            SpatialGrid(delta, 8)

    @pytest.mark.parametrize("n_pts", [8.9, math.inf, math.nan, 7])
    def test_size_that_int_would_change_rejected(self, n_pts):
        # 8.9 silently gave 8 points; int(inf) raised OverflowError
        with pytest.raises(ConfigError, match="n_pts must be an integer >= 8"):
            SpatialGrid(1.0, n_pts)

    @pytest.mark.parametrize("n_pts", [16.0, np.int64(16)])
    def test_integral_size_of_another_type_accepted(self, n_pts):
        g = SpatialGrid(1.0, n_pts)
        assert g.n_pts == 16 and type(g.n_pts) is int

    def test_axis_coords_exclude_endpoint(self):
        g = make_grid(8)
        x = g.axis_coords()
        assert x[0] == 0.0
        assert x[-1] == pytest.approx(DELTA - g.h)


class TestLogTimeGrid:
    def test_nodes_log_uniform(self):
        tg = LogTimeGrid(1e-6, 1.0, 64)
        assert tg.times[0] == 1e-6
        assert tg.times[-1] == 1.0
        ds = np.diff(np.log(tg.times))
        assert np.allclose(ds, ds[0], rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            LogTimeGrid(0.0, 1.0, 8)
        with pytest.raises(ConfigError):
            LogTimeGrid(1.0, 0.5, 8)

    @pytest.mark.parametrize("t_min, t_max", [(1e-4, math.inf), (1e-4, math.nan), (math.nan, 1.0)])
    def test_non_finite_window_rejected(self, t_min, t_max):
        # (1e-4, inf) gave nodes [1e-4, inf, inf, inf, inf] and h_s = nan
        with pytest.raises(ConfigError, match="t_max < inf"):
            LogTimeGrid(t_min, t_max, 5)

    @pytest.mark.parametrize("n_steps", [40.5, math.inf, math.nan, 1])
    def test_step_count_that_int_would_change_rejected(self, n_steps):
        with pytest.raises(ConfigError, match="n_steps must be an integer >= 2"):
            LogTimeGrid(1e-4, 1e-1, n_steps)


class TestTensorField:
    # on an 8^3 grid: values shape and the rejection text, None if accepted
    CASES = {
        "rank-0": ((8, 8, 8), None),
        "rank-1": ((3, 8, 8, 8), None),
        "rank-2": ((3, 3, 8, 8, 8), None),
        "rank-3": ((3, 3, 3, 8, 8, 8), "incompatible"),
        "index-of-2": ((3, 2, 8, 8, 8), "index dimensions"),
        "grid-mismatch": ((3, 8, 8, 4), "incompatible"),
        "nan": ((3, 3, 8, 8, 8), r"^TensorField has a non-finite value at index \(2, 0, 3, 1, 4\)$"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_one_rule_for_ranks_0_to_2(self, case):
        shape, text = self.CASES[case]
        v = np.zeros(shape)
        if case == "nan":
            v[2, 0, 3, 1, 4] = np.nan
        if text is None:
            assert TensorField(make_grid(8), v).values.shape == shape
        else:
            with pytest.raises(ConfigError, match=text):
                TensorField(make_grid(8), v)


class TestFdDerivative:
    def test_constant_gives_zero(self):
        g = make_grid(8)
        df = fd_diff(np.ones(g.shape), 1, g)
        assert np.max(np.abs(df)) == 0.0

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_sin_mode(self, axis):
        g = make_grid(32)
        x = g.mesh(axis)
        k = 2 * math.pi / g.delta
        df = fd_diff(np.broadcast_to(np.sin(k * x), g.shape).copy(), axis, g)
        exact = k * np.cos(k * x)
        err = np.max(np.abs(df - np.broadcast_to(exact, g.shape)))
        # 4th order: (kh)^4/30, with 2x headroom
        kh = k * g.h
        assert err <= 2 * kh**4 / 30 * k

    def test_observed_convergence_order(self):
        errs = []
        ns = [16, 32, 64]
        for n in ns:
            g = make_grid(n)
            x = g.mesh(1)
            f = np.broadcast_to(np.sin(2 * math.pi / g.delta * x) ** 2, g.shape).copy()
            df = fd_diff(f, 1, g)
            k = 2 * math.pi / g.delta
            exact = np.broadcast_to(k * np.sin(2 * k * x), g.shape)
            errs.append(np.max(np.abs(df - exact)))
        p12 = math.log2(errs[0] / errs[1])
        p23 = math.log2(errs[1] / errs[2])
        assert min(p12, p23) >= 4 - 0.2

    def test_localized_onesided_faces(self):
        # cubic polynomial: the centered and the one-sided rows are exact on it
        g = SpatialGrid(1.0, 16, "localized")
        x = g.mesh(1)
        f = np.broadcast_to(x**3 - 2 * x**2 + x, g.shape).copy()
        df = fd_diff(f, 1, g)
        exact = np.broadcast_to(3 * x**2 - 4 * x + 1, g.shape)
        assert np.max(np.abs(df - exact)) < 1e-11

    @pytest.mark.parametrize("mode", ["periodic", "localized"])
    def test_grid_sets_spacing_mode_and_fourth_order(self, mode):
        g = SpatialGrid(1.3, 8, mode)
        values = np.random.default_rng(9).normal(size=(3, 3) + g.shape)
        for axis in (1, 2, 3):
            assert np.array_equal(fd_diff(values, axis, g), roll_stencil_reference(values, axis, g.h, mode))

    @pytest.mark.parametrize("mode", ["periodic", "localized"])
    @pytest.mark.parametrize("lead", [(), (3, 3), (3, 3, 3)], ids=["scalar", "rank2", "rank3"])
    def test_matches_roll_reference_bitwise(self, lead, mode):
        # axis 1 has the fewest nodes the stencil allows, so its face slabs overlap
        values = np.random.default_rng(7).normal(size=lead + (5, 8, 11))
        for axis in (1, 2, 3):
            got = stencil(values, axis, 0.3, mode)
            assert np.array_equal(got, roll_stencil_reference(values, axis, 0.3, mode))

    # n = 8: the seam's gathered ring of 8 nodes is the whole axis; n = 33:
    # flat spans of 35937 entries and more, not a multiple of the kernel's
    # block; a (41, 3, 3) series only at n = 8 and 9 (9 blocks at n = 9), as
    # at n = 33 one copy of it is 106 MB
    @pytest.mark.parametrize(
        "n, lead",
        [(n, lead) for n in (8, 9, 24, 33) for lead in ((), (3,), (3, 3))] + [(8, (41, 3, 3)), (9, (41, 3, 3))],
        ids=lambda v: f"n{v}" if isinstance(v, int) else "x".join(map(str, v)) or "scalar",
    )
    def test_periodic_matches_roll_reference_bitwise(self, n, lead):
        g = SpatialGrid(1.3, n)
        values = np.random.default_rng(n).normal(size=lead + g.shape)
        for axis in (1, 2, 3):
            assert fd_diff(values, axis, g).tobytes() == roll_stencil_reference(values, axis, g.h).tobytes()

    def test_working_memory_is_a_few_blocks(self):
        # beyond the output: the seam's ring of 8 nodes and its derivative
        # (8/32 of the field each, 2.25 blocks) and one block's temporary;
        # [measured] 5.51 blocks of 2**15 entries on every axis, where the
        # whole-span kernel's temporary took 9.0 (0.9 of the field, and the
        # faces' own)
        g = make_grid(32)
        values = np.random.default_rng(4).normal(size=(3, 3) + g.shape)
        block = 2**15 * values.itemsize
        for axis in (1, 2, 3):
            tracemalloc.start()
            try:
                out = fd_diff(values, axis, g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - out.nbytes <= 6 * block

    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigError, match="^need at least 5 nodes along the axis$"):
            stencil(np.zeros((4, 8, 8)), 1, 0.1)

    def test_periodic_sawtooth_documented_behavior(self):
        # f = x1 on a periodic grid: interior derivative is fine, the seam
        # rows see the jump. This is accepted behavior, not an error.
        g = SpatialGrid(1.0, 16, "periodic")
        x = g.mesh(1)
        f = np.broadcast_to(x, g.shape).copy()
        df = fd_diff(f, 1, g)
        interior = df[4:12]
        assert np.allclose(interior, 1.0, atol=1e-11)
        assert np.max(np.abs(df[0])) > 1.0 + 1e-6


class TestFdTimeDiff:
    def test_exponential_in_s(self):
        # the stencil's relative error in d/ds is about (q h_s)^4/30, and
        # d/dt = (1/t) d/ds keeps it
        tg = LogTimeGrid(1e-4, 1.0, 128)
        q = 1.7
        series = np.exp(q * tg.s)
        dt = fd_time_diff(series, tg.times)
        exact = q * series / tg.times
        rel = np.max(np.abs(dt[3:-3] - exact[3:-3]) / exact[3:-3])
        assert rel <= 2 * (q * tg.h_s) ** 4 / 30.0

    def test_matches_seed_formula(self):
        # the kernel groups the interior as 8(a-b)-(c-d) over 12 h_s where the
        # seed summed a-8b+8c-d over 12 and then divided by h_s: the faces
        # must agree bit for bit, the interior to rounding
        t = LogTimeGrid(1.0, 1e3, 41).times
        h_s = float(np.diff(np.log(t))[0])
        rng = np.random.default_rng(11)
        for series in (rng.normal(size=41), rng.normal(size=(41, 3, 3, 4, 5, 6))):
            got = fd_time_diff(series, t)
            want = fd_time_diff_reference(series, t)
            assert np.array_equal(got[:2], want[:2])
            assert np.array_equal(got[-2:], want[-2:])
            # t >= 1 here, so the division by t only shrinks the gap in d/ds
            tol = 1e-15 * np.max(np.abs(series)) / h_s
            assert np.max(np.abs(got[2:-2] - want[2:-2])) <= tol

    @pytest.mark.parametrize("p", [-1.0, 0.5, 2.0])
    def test_power_law_in_t_at_every_node(self, p):
        # t^p = exp(p s): leading relative error (p h_s)^4/30 at the centered
        # rows and (p h_s)^4/5 at the first one-sided row, bounded with 2x
        # headroom ([measured] up to 1.01x and 1.65x of them, the faces'
        # excess from the next order at p h_s = 0.29); d/dt = (1/t) d/ds
        # turns p t^p into p t^(p-1)
        tg = LogTimeGrid(1e-4, 1.0, 64)
        t = tg.times
        dt = fd_time_diff(t**p, t)
        rel = np.abs(dt / (p * t ** (p - 1.0)) - 1.0)
        x = (abs(p) * tg.h_s) ** 4
        assert np.max(rel[2:-2]) <= 2 * x / 30.0
        assert np.max(rel) <= 2 * x / 5.0

    def test_polynomial_exact(self):
        tg = LogTimeGrid(1e-2, 1.0, 16)
        series = 3.0 + 2.0 * tg.s + 0.5 * tg.s**2 - 0.1 * tg.s**3
        dt = fd_time_diff(series, tg.times)
        exact = (2.0 + tg.s - 0.3 * tg.s**2) / tg.times
        assert np.max(np.abs(dt - exact) * tg.times) < 1e-10

    @pytest.mark.parametrize("m", [0, 1, 2, 4])
    def test_too_few_nodes_rejected(self, m):
        with pytest.raises(ConfigError, match="^need at least 5 nodes along the axis$"):
            fd_time_diff(np.zeros(m), np.exp(0.1 * np.arange(m)))

    @pytest.mark.parametrize(
        "nodes,text",
        [
            ([0.1, 0.2, 0.0, 0.4, 0.5], "slice times must be positive"),
            ([0.5] * 5, "time spacing is zero"),
            ([0.1, 0.2, 0.3, 0.4, 0.5], "t_nodes must be uniform in log t"),
            ([0.1, 0.2, np.inf, 0.4, 0.5], "slice times must be finite"),
            ([0.1, 0.2, np.nan, 0.4, 0.5], "slice times must be finite"),
        ],
        ids=["zero", "repeated", "uniform-in-t", "inf", "nan"],
    )
    def test_bad_nodes_rejected(self, nodes, text):
        with pytest.raises(ConfigError, match=f"^{text}$"):
            fd_time_diff(np.zeros(5), np.array(nodes))


class TestLogTimeIntegral:
    def test_zero_integrand(self):
        tg = LogTimeGrid(1e-6, 1.0, 32)
        assert log_time_cumint(np.zeros(32), tg)[-1] == 0.0

    def test_constant_integrand(self):
        # trapezoid-in-log error ~ (q h)^2/12 with q = 1 here
        tg = LogTimeGrid(1e-8, 1.0, 2048)
        val = log_time_cumint(np.ones(2048), tg)[-1]
        assert val == pytest.approx(1.0, abs=1e-5)

    def test_inverse_sqrt_frozen_value(self):
        # int_0^1 tau^(-1/2) dtau = 2, tolerance 1e-6 at 4096 nodes
        tg = LogTimeGrid(1e-6, 1.0, 4096)
        g = tg.times**-0.5
        val = log_time_cumint(g, tg)[-1]
        assert val == pytest.approx(2.0, abs=1e-6)

    def test_target_node(self):
        tg = LogTimeGrid(1e-6, 1.0, 512)
        g = np.ones(512)
        t7 = float(tg.times[300])
        assert log_time_cumint(g, tg)[300] == pytest.approx(t7, rel=1e-3)

    def test_linearity_and_monotonicity(self):
        # additivity of the tail fit needs a shared leading power at t_min;
        # scaling holds for any positive integrand
        tg = LogTimeGrid(1e-5, 1.0, 256)
        a = tg.times**0.5 * (1.0 + tg.times)
        b = tg.times**0.5 * (2.0 + np.cos(tg.times))
        ia = log_time_cumint(a, tg)[-1]
        ib = log_time_cumint(b, tg)[-1]
        iab = log_time_cumint(2.0 * a + 3.0 * b, tg)[-1]
        assert iab == pytest.approx(2 * ia + 3 * ib, rel=1e-10)
        assert log_time_cumint(7.0 * a, tg)[-1] == pytest.approx(7 * ia, rel=1e-12)
        assert ia > 0 and ib > 0
        cum = log_time_cumint(a, tg)
        assert np.all(np.diff(cum) > 0)

    def test_non_integrable_rejected(self):
        tg = LogTimeGrid(1e-6, 1.0, 64)
        g = tg.times**-1.5
        with pytest.raises(NonIntegrableError):
            log_time_cumint(g, tg)

    def test_marginal_tau_inverse_rejected(self):
        tg = LogTimeGrid(1e-6, 1.0, 64)
        g = 1.0 / tg.times
        with pytest.raises(NonIntegrableError):
            log_time_cumint(g, tg)

    def test_flat_head_aborts_whatever_the_rest_of_the_field_does(self):
        # a runaway to 1e40 at t_max in another component must not hide it
        tg = LogTimeGrid(1e-4, 1e-1, 41)
        m = np.stack([np.full(41, 0.13), 1e40 * (tg.times / tg.times[-1]) ** 2], axis=1)
        with pytest.raises(NonIntegrableError, match=r"in component \(0,\)"):
            log_time_cumint(m / tg.times[:, None], tg)

    def test_flat_head_at_the_rounding_floor_gets_no_tail(self):
        tg = LogTimeGrid(1e-4, 1e-1, 41)
        m = np.stack([np.full(41, 3e-15), tg.times**0.5], axis=1)
        g = m / tg.times[:, None]
        with pytest.raises(NonIntegrableError):
            cumint_reference(g, tg)
        out = log_time_cumint(g, tg)
        assert out[0, 0] == 0.0 and out[0, 1] > 0.0
        assert np.array_equal(out, cumint_reference(g, tg, noise_floor=1e-10))

    def test_tail_accuracy_power_law(self):
        # g = tau^0.3: integral t^1.3/1.3; tail fit is exact for pure powers
        tg = LogTimeGrid(1e-4, 1.0, 1024)
        g = tg.times**0.3
        val = log_time_cumint(g, tg)[-1]
        assert val == pytest.approx(1 / 1.3, rel=3e-5)

    @staticmethod
    def _reference_series(tg):
        t = tg.times
        rng = np.random.default_rng(3)
        series_1d = t**-0.5 * (1.0 + 0.1 * np.sin(np.log(t)))
        amp = rng.normal(size=(1, 3, 3, 4, 5, 6))
        series_6d = t.reshape(-1, 1, 1, 1, 1, 1) ** -0.3 * amp
        return series_1d, series_6d

    def test_matches_the_recurrence_reference_bitwise(self):
        tg = LogTimeGrid(1e-4, 1e-1, 41)
        for series in self._reference_series(tg):
            assert np.array_equal(log_time_cumint(series, tg), cumint_reference(series, tg))

    def test_matches_the_cumsum_reference_to_rounding(self):
        # the same trapezoid sums, accumulated in another order: [measured]
        # at most 9.3e-16 of each entry on these series
        tg = LogTimeGrid(1e-4, 1e-1, 41)
        for series in self._reference_series(tg):
            want = cumsum_cumint_reference(series, tg)
            assert np.all(np.abs(log_time_cumint(series, tg) - want) <= 2e-15 * np.abs(want))

    def test_input_only_read(self):
        tg = LogTimeGrid(1e-4, 1e-1, 41)
        series = tg.times.reshape(-1, 1, 1) ** -0.5 * np.arange(1.0, 7.0).reshape(1, 2, 3)
        kept = series.copy()
        out = log_time_cumint(series, tg)
        assert np.array_equal(series, kept)
        series.setflags(write=False)
        assert np.array_equal(log_time_cumint(series, tg), out)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("node", [0, 20, 40])
    def test_non_finite_sample_rejected_at_any_node(self, node, bad):
        tg = LogTimeGrid(1e-4, 1e-1, 41)
        series = np.ones((41, 2, 3))
        series[node, 1, 2] = bad
        with pytest.raises(NonIntegrableError, match="non-finite samples"):
            log_time_cumint(series, tg)

    def test_vector_components_independent(self):
        tg = LogTimeGrid(1e-6, 1.0, 128)
        g = np.stack([np.ones(128), tg.times], axis=1)
        out = log_time_cumint(g, tg)
        assert out[-1, 0] == pytest.approx(1.0, rel=3e-3)
        assert out[-1, 1] == pytest.approx(0.5, rel=1e-2)
