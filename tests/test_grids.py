"""Tests for the numerical substrate: grids, FD stencils, log-time quadrature,
and norms. Expected values are closed forms computed in the test, never copied
from the implementation.
"""

import math

import numpy as np
import pytest

from kasnerlab.errors import GridError, NonIntegrableError, SymmetryError
from kasnerlab.grids import (
    LogTimeGrid,
    ScalarField,
    SpatialGrid,
    TensorField,
    fd_derivative,
    fd_diff,
    fd_time_diff,
    hs_norm,
    interp_log_time,
    log_time_cumint,
    log_time_integral,
    ws_norm,
)

from oracles import cumsum_cumint_reference, roll_stencil_reference

DELTA = 2 * math.pi


def make_grid(n=16, mode="periodic"):
    return SpatialGrid(DELTA, n, mode)


class TestSpatialGrid:
    def test_spacing(self):
        g = make_grid(16)
        assert g.h == pytest.approx(DELTA / 16)
        assert g.shape == (16, 16, 16)

    def test_too_few_points_rejected(self):
        with pytest.raises(GridError):
            SpatialGrid(1.0, 4)

    def test_bad_mode_rejected(self):
        with pytest.raises(GridError):
            SpatialGrid(1.0, 16, "open")

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

    def test_index_of(self):
        tg = LogTimeGrid(1e-4, 1.0, 33)
        assert tg.index_of(tg.times[7]) == 7
        with pytest.raises(GridError):
            tg.index_of(0.5 * (tg.times[3] + tg.times[4]))

    def test_validation(self):
        with pytest.raises(GridError):
            LogTimeGrid(0.0, 1.0, 8)
        with pytest.raises(GridError):
            LogTimeGrid(1.0, 0.5, 8)


class TestFieldTypes:
    def test_symmetric_tag_enforced(self):
        g = make_grid(8)
        v = np.random.default_rng(0).normal(size=(3, 3) + g.shape)
        with pytest.raises(SymmetryError):
            TensorField(g, v, symmetry="symmetric_2")
        TensorField(g, 0.5 * (v + v.swapaxes(0, 1)), symmetry="symmetric_2")

    def test_antisymmetric_tag_enforced(self):
        g = make_grid(8)
        v = np.random.default_rng(1).normal(size=(3, 3, 3) + g.shape)
        with pytest.raises(SymmetryError):
            TensorField(g, v, symmetry="antisymmetric_last_2")
        TensorField(g, 0.5 * (v - v.swapaxes(1, 2)), symmetry="antisymmetric_last_2")

    def test_non_finite_rejected_with_location(self):
        g = make_grid(8)
        v = np.zeros(g.shape)
        v[3, 1, 4] = np.nan
        with pytest.raises(GridError, match=r"3, 1, 4"):
            ScalarField(g, v)

    def test_shape_mismatch_rejected(self):
        g = make_grid(8)
        with pytest.raises(GridError):
            ScalarField(g, np.zeros((8, 8, 4)))


class TestFdDerivative:
    def test_constant_gives_zero(self):
        g = make_grid(8)
        f = ScalarField(g, np.ones(g.shape))
        df = fd_derivative(f, 1, order=4)
        assert np.max(np.abs(df.values)) == 0.0

    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("order", [2, 4])
    def test_sin_mode(self, axis, order):
        g = make_grid(32)
        x = g.mesh(axis)
        k = 2 * math.pi / g.delta
        f = ScalarField(g, np.broadcast_to(np.sin(k * x), g.shape).copy())
        df = fd_derivative(f, axis, order=order)
        exact = k * np.cos(k * x)
        err = np.max(np.abs(df.values - np.broadcast_to(exact, g.shape)))
        # 4th order: (kh)^4/30; 2nd order: (kh)^2/6, with 2x headroom
        kh = k * g.h
        bound = 2 * (kh**4 / 30 if order == 4 else kh**2 / 6) * k
        assert err <= bound

    @pytest.mark.parametrize("order", [2, 4])
    def test_observed_convergence_order(self, order):
        errs = []
        ns = [16, 32, 64]
        for n in ns:
            g = make_grid(n)
            x = g.mesh(1)
            f = np.broadcast_to(np.sin(2 * math.pi / g.delta * x) ** 2, g.shape).copy()
            df = fd_diff(f, 1, order, g.h)
            k = 2 * math.pi / g.delta
            exact = np.broadcast_to(k * np.sin(2 * k * x), g.shape)
            errs.append(np.max(np.abs(df - exact)))
        p12 = math.log2(errs[0] / errs[1])
        p23 = math.log2(errs[1] / errs[2])
        assert min(p12, p23) >= order - 0.2

    def test_localized_onesided_faces(self):
        # cubic polynomial: both stencil families are exact on it
        g = SpatialGrid(1.0, 16, "localized")
        x = g.mesh(1)
        f = np.broadcast_to(x**3 - 2 * x**2 + x, g.shape).copy()
        df = fd_diff(f, 1, 4, g.h, "localized")
        exact = np.broadcast_to(3 * x**2 - 4 * x + 1, g.shape)
        assert np.max(np.abs(df - exact)) < 1e-11

    @pytest.mark.parametrize("mode", ["periodic", "localized"])
    @pytest.mark.parametrize("lead", [(), (3, 3), (3, 3, 3)], ids=["scalar", "rank2", "rank3"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_roll_reference_bitwise(self, order, lead, mode):
        # axis 1 has the fewest nodes order 4 allows, so its face slabs overlap
        values = np.random.default_rng(7).normal(size=lead + (5, 8, 11))
        for axis in (1, 2, 3):
            got = fd_diff(values, axis, order, 0.3, mode)
            assert np.array_equal(got, roll_stencil_reference(values, axis, order, 0.3, mode))

    def test_periodic_sawtooth_documented_behavior(self):
        # f = x1 on a periodic grid: interior derivative is fine, the seam
        # rows see the jump. This is accepted behavior, not an error.
        g = SpatialGrid(1.0, 16, "periodic")
        x = g.mesh(1)
        f = np.broadcast_to(x, g.shape).copy()
        df = fd_diff(f, 1, 4, g.h)
        interior = df[4:12]
        assert np.allclose(interior, 1.0, atol=1e-11)
        assert np.max(np.abs(df[0])) > 1.0 + 1e-6


class TestFdTimeDiff:
    @pytest.mark.parametrize("order,slack", [(4, 30.0), (2, 6.0)])
    def test_exponential_in_s(self, order, slack):
        tg = LogTimeGrid(1e-4, 1.0, 128)
        q = 1.7
        series = np.exp(q * tg.s)
        ds = fd_time_diff(series, tg.h_s, order=order)
        exact = q * series
        rel = np.max(np.abs(ds[3:-3] - exact[3:-3]) / exact[3:-3])
        assert rel <= 2 * (q * tg.h_s) ** order / slack

    def test_polynomial_exact(self):
        tg = LogTimeGrid(1e-2, 1.0, 16)
        series = 3.0 + 2.0 * tg.s + 0.5 * tg.s**2 - 0.1 * tg.s**3
        ds = fd_time_diff(series, tg.h_s, order=4)
        exact = 2.0 + tg.s - 0.3 * tg.s**2
        assert np.max(np.abs(ds - exact)) < 1e-10


class TestLogTimeIntegral:
    def test_zero_integrand(self):
        tg = LogTimeGrid(1e-6, 1.0, 32)
        assert log_time_integral(np.zeros(32), tg) == 0.0

    def test_constant_integrand(self):
        # trapezoid-in-log error ~ (q h)^2/12 with q = 1 here
        tg = LogTimeGrid(1e-8, 1.0, 2048)
        val = log_time_integral(np.ones(2048), tg)
        assert val == pytest.approx(1.0, abs=1e-5)

    def test_inverse_sqrt_frozen_value(self):
        # int_0^1 tau^(-1/2) dtau = 2, tolerance 1e-6 at 4096 nodes
        tg = LogTimeGrid(1e-6, 1.0, 4096)
        g = tg.times**-0.5
        val = log_time_integral(g, tg)
        assert val == pytest.approx(2.0, abs=1e-6)

    def test_target_node(self):
        tg = LogTimeGrid(1e-6, 1.0, 512)
        g = np.ones(512)
        t7 = float(tg.times[300])
        assert log_time_integral(g, tg, t7) == pytest.approx(t7, rel=1e-3)

    def test_linearity_and_monotonicity(self):
        # additivity of the tail fit needs a shared leading power at t_min;
        # scaling holds for any positive integrand
        tg = LogTimeGrid(1e-5, 1.0, 256)
        a = tg.times**0.5 * (1.0 + tg.times)
        b = tg.times**0.5 * (2.0 + np.cos(tg.times))
        ia = log_time_integral(a, tg)
        ib = log_time_integral(b, tg)
        iab = log_time_integral(2.0 * a + 3.0 * b, tg)
        assert iab == pytest.approx(2 * ia + 3 * ib, rel=1e-10)
        assert log_time_integral(7.0 * a, tg) == pytest.approx(7 * ia, rel=1e-12)
        assert ia > 0 and ib > 0
        cum = log_time_cumint(a, tg)
        assert np.all(np.diff(cum) > 0)

    def test_non_integrable_rejected(self):
        tg = LogTimeGrid(1e-6, 1.0, 64)
        g = tg.times**-1.5
        with pytest.raises(NonIntegrableError):
            log_time_integral(g, tg)

    def test_marginal_tau_inverse_rejected(self):
        tg = LogTimeGrid(1e-6, 1.0, 64)
        g = 1.0 / tg.times
        with pytest.raises(NonIntegrableError):
            log_time_integral(g, tg)

    def test_tail_accuracy_power_law(self):
        # g = tau^0.3: integral t^1.3/1.3; tail fit is exact for pure powers
        tg = LogTimeGrid(1e-4, 1.0, 1024)
        g = tg.times**0.3
        val = log_time_integral(g, tg)
        assert val == pytest.approx(1 / 1.3, rel=3e-5)

    @pytest.mark.parametrize("with_tail", [True, False])
    def test_matches_cumsum_reference_bitwise(self, with_tail):
        tg = LogTimeGrid(1e-4, 1e-1, 41)
        t = tg.times
        rng = np.random.default_rng(3)
        series_1d = t**-0.5 * (1.0 + 0.1 * np.sin(np.log(t)))
        amp = rng.normal(size=(1, 3, 3, 4, 5, 6))
        series_6d = t.reshape(-1, 1, 1, 1, 1, 1) ** -0.3 * amp
        for series in (series_1d, series_6d):
            got = log_time_cumint(series, tg, with_tail)
            assert np.array_equal(got, cumsum_cumint_reference(series, tg, with_tail))

    def test_vector_components_independent(self):
        tg = LogTimeGrid(1e-6, 1.0, 128)
        g = np.stack([np.ones(128), tg.times], axis=1)
        out = log_time_cumint(g, tg)
        assert out[-1, 0] == pytest.approx(1.0, rel=3e-3)
        assert out[-1, 1] == pytest.approx(0.5, rel=1e-2)


class TestInterpLogTime:
    def test_cubic_in_s_exact(self):
        tg = LogTimeGrid(1e-3, 1.0, 32)
        series = 1.0 + tg.s + 0.25 * tg.s**2 - 0.05 * tg.s**3
        t = math.exp(0.5 * (tg.s[10] + tg.s[11]))
        s = math.log(t)
        want = 1.0 + s + 0.25 * s**2 - 0.05 * s**3
        assert interp_log_time(series, tg, t) == pytest.approx(want, rel=1e-12)

    def test_out_of_range_rejected(self):
        tg = LogTimeGrid(1e-3, 1.0, 32)
        with pytest.raises(GridError):
            interp_log_time(np.ones(32), tg, 2e-4)


class TestNorms:
    def test_zero_field(self):
        g = make_grid(8)
        f = ScalarField(g, np.zeros(g.shape))
        assert hs_norm(f, 2) == 0.0
        assert ws_norm(f, 2) == 0.0

    def test_constant_with_kasner_volume_weight(self):
        # vol = t (product of t^{p_i} with sum p_i = 1): norm = sqrt(delta^3 t)
        g = make_grid(8)
        t = 0.037
        f = ScalarField(g, np.ones(g.shape))
        w = ScalarField(g, t * np.ones(g.shape))
        want = math.sqrt(g.delta**3 * t)
        assert hs_norm(f, 0, volume_weight=w) == pytest.approx(want, rel=1e-12)

    def test_h1_of_sin_closed_form(self):
        # ||f||^2 = int f^2 + |grad f|^2 = delta^3/2 (1 + (2pi/delta)^2)
        g = make_grid(32)
        k = 2 * math.pi / g.delta
        f = ScalarField(g, np.broadcast_to(np.sin(k * g.mesh(1)), g.shape).copy())
        want = math.sqrt(g.delta**3 / 2 * (1 + k**2))
        assert hs_norm(f, 1) == pytest.approx(want, rel=1e-4)

    def test_monotone_in_s_and_s0_is_l2(self):
        g = make_grid(16)
        rng = np.random.default_rng(5)
        modes = rng.normal(size=(2, 2, 2))
        x1, x2, x3 = g.mesh(1), g.mesh(2), g.mesh(3)
        vals = sum(
            modes[i, j, k]
            * np.sin((i + 1) * x1 + 0.3)
            * np.cos((j + 1) * x2)
            * np.sin((k + 1) * x3 + 0.1)
            for i in range(2)
            for j in range(2)
            for k in range(2)
        )
        f = ScalarField(g, vals)
        norms = [hs_norm(f, s) for s in range(5)]
        assert all(norms[i] <= norms[i + 1] for i in range(4))
        l2 = math.sqrt(np.sum(vals**2) * g.cell_volume)
        assert norms[0] == pytest.approx(l2, rel=1e-12)

    def test_tensor_components_add(self):
        g = make_grid(8)
        rng = np.random.default_rng(7)
        v = rng.normal(size=(3,) + g.shape)
        tf = TensorField(g, v)
        by_hand = math.sqrt(sum(hs_norm(ScalarField(g, v[i]), 0) ** 2 for i in range(3)))
        assert hs_norm(tf, 0) == pytest.approx(by_hand, rel=1e-12)

    def test_weight_positivity_enforced(self):
        g = make_grid(8)
        f = ScalarField(g, np.ones(g.shape))
        w = ScalarField(g, np.zeros(g.shape))
        with pytest.raises(GridError):
            hs_norm(f, 0, volume_weight=w)

    def test_s_out_of_range(self):
        g = make_grid(8)
        f = ScalarField(g, np.ones(g.shape))
        with pytest.raises(GridError):
            hs_norm(f, 5)
