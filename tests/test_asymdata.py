"""Tests for asymptotic data construction, transports, and constraint residuals.

Expected values come from three independent routes: exact substitution into
the defining formulas, adaptive-quadrature / reference-ODE solves of the
transport equations, and a symbolic (exact rational) verification of the
frame-vs-metric residual identity.  Refinement-study bounds are marked where
the oracle is a measured convergence ratio.
"""

import inspect
import tracemalloc

import numpy as np
import pytest
import sympy as sp

from kasnerlab import asymdata, families
from kasnerlab.asymdata import (
    DATASET_REL_TOL,
    SLOTS,
    AsymptoticDataSet,
    KasnerExponents,
    assemble_dataset,
    exponents_from_u,
    frame_matrix_from_metric,
    frame_momentum_residual,
    momentum_residual,
    solve_c11,
    solve_kappa13,
    solve_kappa23,
)
from kasnerlab.errors import ConfigError, DegenerateExponentsError
from kasnerlab.families import (
    U0,
    homogeneous_dataset,
    layered_dataset,
    random_dataset,
    u_wave_c33,
    u_wave_dataset,
    u_wave_profile,
)
from kasnerlab.grids import SpatialGrid, TensorField

from oracles import (
    coframe_matrix_reference,
    frame_matrix_reference,
    frame_momentum_residual_reference,
    kappa_reference,
    metric_check_reference,
    metric_from_frame_reference,
    ode_reference,
    perturb_offdiagonal,
    quad_cumulative,
    random_dataset_reference,
    round_trip_reference,
    seam_reference,
    sympy_residual_gaps,
    unchecked_exponents,
    unpack_slots,
)

DELTA = 2.0 * np.pi


def small_grid(n=16, mode="periodic"):
    return SpatialGrid(DELTA, n, mode)


class TestKasnerExponents:
    def test_u2_exact_sevenths(self):
        grid = small_grid()
        p = exponents_from_u(grid, 2.0)
        assert np.max(np.abs(p.p1 + 2.0 / 7.0)) < 1e-15
        assert np.max(np.abs(p.p2 - 3.0 / 7.0)) < 1e-15
        assert np.max(np.abs(p.p3 - 6.0 / 7.0)) < 1e-15
        assert abs(p.eps - 1.0 / 7.0) < 1e-15

    def test_u3_exact_thirteenths(self):
        grid = small_grid()
        p = exponents_from_u(grid, 3.0)
        assert np.max(np.abs(p.p1 + 3.0 / 13.0)) < 1e-15
        assert np.max(np.abs(p.p2 - 4.0 / 13.0)) < 1e-15
        assert np.max(np.abs(p.p3 - 12.0 / 13.0)) < 1e-15

    def test_pointwise_relations_u_wave(self):
        grid = small_grid()
        p = exponents_from_u(grid, u_wave_profile(grid))
        assert np.max(np.abs(p.p1 + p.p2 + p.p3 - 1.0)) < 1e-12
        assert np.max(np.abs(p.p1**2 + p.p2**2 + p.p3**2 - 1.0)) < 1e-12
        # max u = 2.1 lands exactly on a grid point when 4 | n, so eps = 1/d(2.1)
        assert p.eps == pytest.approx(1.0 / (1.0 + 2.1 + 2.1**2), rel=1e-12)

    @pytest.mark.parametrize("value", [0.9, 1.0, np.nan, np.inf])
    def test_rejects_u_at_or_below_one(self, value):
        # and a non-finite u, which a NaN-unsafe u <= 1 test would pass
        grid = small_grid()
        u = np.full(grid.shape, 2.0)
        u[3, 1, 4] = value
        with pytest.raises(DegenerateExponentsError, match="^u must be finite and exceed 1") as err:
            exponents_from_u(grid, u)
        assert "3, 1, 4" in str(err.value)

    def test_raw_input_validated(self):
        grid = small_grid()
        p = exponents_from_u(grid, 2.0)
        rebuilt = KasnerExponents(grid, p.p1, p.p2, p.p3)
        assert rebuilt.eps == pytest.approx(p.eps)
        with pytest.raises(ConfigError):
            KasnerExponents(grid, p.p1 + 5e-12, p.p2, p.p3)
        with pytest.raises(DegenerateExponentsError):
            KasnerExponents(grid, p.p2, p.p1, p.p3)

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("name", ["p1", "p3"])
    def test_non_finite_exponent_fails_the_relations(self, name, value):
        # a NaN must fail the relation check as inf does, and not pass on to
        # the ordering check, which finds no misordered point for it
        grid = small_grid(8)
        p = exponents_from_u(grid, 2.0)
        fields = {"p1": p.p1.copy(), "p2": p.p2, "p3": p.p3.copy()}
        fields[name][1, 2, 3] = value
        with pytest.raises(ConfigError, match="^exponent relations violated") as err:
            KasnerExponents(grid, **fields)
        assert f"max|p1+p2+p3-1| = {value:.3e}," in str(err.value)

    def test_degeneracy_guard_near_one(self):
        grid = small_grid()
        # u = 1e5 drives 1 - p3 = 1/(1 + u + u^2) ~ 1e-10 below the 1e-8 floor
        with pytest.raises(DegenerateExponentsError):
            exponents_from_u(grid, 1e5)

    def test_degeneracy_guard_near_p2_equal_p3(self):
        grid = small_grid()
        # u = 1 + 1e-9 gives p3 - p2 = (1 + u)(u - 1)/(1 + u + u^2) ~ 6.7e-10;
        # this floor is the one check on the gaps the transports divide by
        text = r"^exponent gap min\(1-p3, p3-p2\) = 6\.667e-10 at grid index \(0, 0, 0\) is below 1e-08"
        with pytest.raises(DegenerateExponentsError, match=text):
            exponents_from_u(grid, 1.0 + 1e-9)

    def test_unchecked_channel_for_violations(self):
        grid = small_grid()
        p = unchecked_exponents(
            grid, np.full(grid.shape, -0.3), np.full(grid.shape, 0.5), np.full(grid.shape, 0.9)
        )
        assert abs(p.eps - 0.1) < 1e-15


def _coframe_slots(f):
    """Every slot of h = f^{-1}, each formed by the library's per-entry
    helper, stacked in SLOTS order."""
    return np.stack([asymdata._coframe_entry(f, s) for s in range(len(SLOTS))])


def _kappa_fields(ds):
    """(kappa_1^2, kappa_2^3, kappa_1^3), each formed by the library's
    per-entry helper."""
    p = (ds.p.p1, ds.p.p2, ds.p.p3)
    return tuple(asymdata._kappa_entry(p, ds.c, i, l) for i, l in ((0, 1), (1, 2), (0, 2)))


def _random_packed(grid, seed, diag_scale, offdiag_scale):
    """Packed slots: exp(diag_scale N(0, 1)) on the diagonal, offdiag_scale
    N(0, 1) off it."""
    rng = np.random.default_rng(seed)
    packed = np.empty((6,) + grid.shape)
    for i in range(3):
        packed[i] = np.exp(diag_scale * rng.normal(size=grid.shape))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        packed[SLOTS.index((i, j))] = offdiag_scale * rng.normal(size=grid.shape)
    return packed


class TestFrameMatrices:
    def test_identity_metric_gives_identity_frames(self):
        grid = small_grid(8)
        c = np.zeros((6,) + grid.shape)
        c[:3] = 1.0
        f = frame_matrix_from_metric(c)
        h = _coframe_slots(f)
        eye = np.zeros((3, 3) + grid.shape)
        eye[0, 0] = eye[1, 1] = eye[2, 2] = 1.0
        assert np.array_equal(unpack_slots(f, symmetric=False), eye)
        assert np.array_equal(unpack_slots(h, symmetric=False), eye)

    def test_round_trip_metric_frame_metric(self):
        grid = small_grid(8)
        c = _random_packed(grid, 3, 1.0, 0.3)
        f = frame_matrix_from_metric(c)
        want = metric_from_frame_reference(unpack_slots(f, symmetric=False))
        full = unpack_slots(c, symmetric=True)
        assert np.max(np.abs(want - full)) < 1e-12 * np.max(np.abs(full))
        for s, (i, j) in enumerate(SLOTS):
            assert np.array_equal(asymdata._metric_entry(f, s), want[i, j])

    def test_coframe_is_matrix_inverse(self):
        grid = small_grid(8)
        f = _random_packed(grid, 4, 0.5, 1.0)
        h = _coframe_slots(f)
        prod = np.einsum(
            "ia...,ac...->ic...", unpack_slots(f, symmetric=False), unpack_slots(h, symmetric=False)
        )
        eye = np.zeros_like(prod)
        eye[0, 0] = eye[1, 1] = eye[2, 2] = 1.0
        assert np.max(np.abs(prod - eye)) < 1e-13


class TestCumulativeSimpson:
    # _cumint_x3 is a port of scipy's equal-interval cumulative_simpson; these
    # pin it to scipy's rounding, so a change to either shows here
    @pytest.mark.parametrize("n", [8, 9, 33, 96])
    def test_matches_scipy_bit_for_bit(self, n):
        integrate = pytest.importorskip("scipy.integrate")
        grid = small_grid(n)
        rng = np.random.default_rng(n)
        y = rng.standard_normal(grid.shape) * 10.0 ** rng.uniform(-5.0, 5.0, grid.shape)
        want = integrate.cumulative_simpson(y, dx=grid.h, axis=-1, initial=0.0)
        assert np.array_equal(asymdata._cumint_x3(y, grid), want)

    def test_matches_scipy_on_the_u_wave_integrands(self, monkeypatch):
        integrate = pytest.importorskip("scipy.integrate")
        grid = small_grid(32)
        port = asymdata._cumint_x3
        seen = []

        def record(integrand, grid):
            seen.append(integrand)
            return port(integrand, grid)

        monkeypatch.setattr(asymdata, "_cumint_x3", record)
        u_wave_dataset(grid)
        # the c11, kappa_2^3 and kappa_1^3 integrands, in solve order
        assert len(seen) == 3 and np.any(seen[0] != 0.0)
        for integrand in seen:
            want = integrate.cumulative_simpson(integrand, dx=grid.h, axis=-1, initial=0.0)
            assert np.array_equal(port(integrand, grid), want)


class TestSolveC11:
    def test_constant_extension(self):
        grid = small_grid()
        p = exponents_from_u(grid, 2.0)
        n = grid.n_pts
        x1 = grid.axis_coords()[:, None]
        x2 = grid.axis_coords()[None, :]
        slice2d = 1.0 + 0.3 * np.sin(x1) * np.cos(x2) * np.ones((n, n))
        c11, _ = solve_c11(p, np.full(grid.shape, 5.0), c11_slice=slice2d)
        expected = np.broadcast_to(slice2d[:, :, None], grid.shape)
        assert np.max(np.abs(c11 - expected)) < 1e-14

    def test_against_adaptive_quadrature_oracle(self):
        # u varies along x^3 only; the full 3-d solve must match a 1-d
        # adaptive-quadrature evaluation of the same line integral to 1e-8.
        grid = SpatialGrid(DELTA, 128)
        x3 = grid.mesh(3)
        amp = 0.02
        u = np.broadcast_to(2.0 + amp * np.sin(x3), grid.shape).copy()
        p = exponents_from_u(grid, u)
        c11, _ = solve_c11(p, np.ones(grid.shape))

        uu = sp.symbols("s")
        u_expr = 2.0 + amp * sp.sin(uu)
        d = 1 + u_expr + u_expr**2
        p1e, p3e = -u_expr / d, u_expr * (1 + u_expr) / d
        integrand = 2 * sp.diff(p3e, uu) / (p3e - p1e)
        func = sp.lambdify(uu, integrand, "numpy")
        oracle = -quad_cumulative(func, grid.axis_coords())
        assert np.max(np.abs(np.log(c11[0, 0, :]) - oracle)) < 1e-8

    def test_u_wave_closed_form(self):
        grid = small_grid(32)
        ds = u_wave_dataset(grid)
        p = ds.p
        expected = np.exp(-(p.p3 - p.p2) / (p.p3 - p.p1) * np.log(ds.c[1]))
        assert np.max(np.abs(ds.c[0] - expected)) < 1e-4

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_rejects_nonpositive_slice_before_the_log(self, value):
        # the check precedes np.log, so no RuntimeWarning comes first
        grid = small_grid()
        p = exponents_from_u(grid, 2.0)
        slice2d = np.ones((grid.n_pts, grid.n_pts))
        slice2d[3, 1] = value
        with pytest.raises(ConfigError, match="^c11_slice must be positive everywhere$"):
            solve_c11(p, np.ones(grid.shape), c11_slice=slice2d)

    def test_rejects_nonpositive_c22(self):
        grid = small_grid()
        p = exponents_from_u(grid, 2.0)
        bad = np.ones(grid.shape)
        bad[0, 0, 0] = -1.0
        with pytest.raises(ConfigError):
            solve_c11(p, bad)


@pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
@pytest.mark.parametrize(
    "solve,field",
    [
        ("c11", "c22"),
        ("kappa23", "c11"),
        ("kappa23", "c22"),
        ("kappa23", "c33"),
        ("kappa13", "c11"),
        ("kappa13", "c22"),
        ("kappa13", "c33"),
    ],
)
def test_solves_name_the_nonpositive_field(solve, field, value):
    # a NaN or an infinity fails the check as 0.0 does, before any transport
    # arithmetic can warn
    grid = small_grid()
    p = exponents_from_u(grid, 2.0)
    diag = {name: np.ones(grid.shape) for name in ("c11", "c22", "c33")}
    diag[field][3, 1, 4] = value
    with pytest.raises(ConfigError, match=f"^{field} must be finite and positive everywhere$"):
        if solve == "c11":
            solve_c11(p, diag["c22"])
        elif solve == "kappa23":
            solve_kappa23(p, diag["c11"], diag["c22"], diag["c33"])
        else:
            solve_kappa13(p, diag["c11"], diag["c22"], diag["c33"], kappa12=0.0)


class TestKappaTransports:
    def test_homogeneous_zero_slice_stays_zero(self):
        grid = small_grid()
        p = exponents_from_u(grid, 2.0)
        ones = np.ones(grid.shape)
        k23, _ = solve_kappa23(p, ones, ones, ones)
        k13, _ = solve_kappa13(p, ones, ones, ones, kappa12=0.0)
        assert np.all(k23 == 0.0)
        assert np.all(k13 == 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_kappa13_rejects_a_non_finite_kappa12(self, value):
        grid = small_grid()
        p = exponents_from_u(grid, 2.0)
        ones = np.ones(grid.shape)
        kappa12 = np.zeros(grid.shape)
        kappa12[3, 1, 4] = value
        with pytest.raises(ConfigError, match="^kappa12 must be finite$"):
            solve_kappa13(p, ones, ones, ones, kappa12)

    def test_kappa23_linear_growth_against_analytic(self):
        # exponents vary along x^2 only, c = identity: the transport reduces
        # to d_3 kappa = d_2 p2, so kappa grows linearly in x^3.
        grid = SpatialGrid(DELTA, 128)
        amp = 0.01
        x2 = grid.mesh(2)
        u = np.broadcast_to(2.0 + amp * np.sin(x2), grid.shape).copy()
        p = exponents_from_u(grid, u)
        ones = np.ones(grid.shape)
        k23, _ = solve_kappa23(p, ones, ones, ones)

        s = sp.symbols("s")
        u_expr = 2.0 + amp * sp.sin(s)
        d = 1 + u_expr + u_expr**2
        dp2 = sp.lambdify(s, sp.diff((1 + u_expr) / d, s), "numpy")
        x2_line = grid.axis_coords()
        x3_line = grid.axis_coords()
        expected = dp2(x2_line)[None, :, None] * x3_line[None, None, :]
        assert np.max(np.abs(k23 - expected)) < 1e-8

    def test_kappa23_pure_integrating_factor_closed_form(self):
        # x^2-independent right side vanishes exactly, so the solve reduces
        # to the integrating-factor decay of the slice value.
        grid = small_grid(32)
        x3 = grid.mesh(3)
        p = exponents_from_u(grid, 2.0)
        ones = np.ones(grid.shape)
        c33 = np.broadcast_to(np.exp(0.3 * np.sin(x3)), grid.shape).copy()
        k23, _ = solve_kappa23(p, ones, ones, c33, kappa23_slice=0.2)
        expected = 0.2 * np.exp(-0.15 * np.sin(x3))
        assert np.max(np.abs(k23 - expected)) < 1e-13

    def test_kappa23_full_ode_against_reference(self):
        grid = SpatialGrid(DELTA, 48)
        x2, x3 = grid.mesh(2), grid.mesh(3)
        p = exponents_from_u(grid, 2.0)
        ones = np.ones(grid.shape)
        c33 = np.broadcast_to(np.exp(0.3 * np.sin(x3) + 0.2 * np.sin(x2)), grid.shape).copy()
        k23, _ = solve_kappa23(p, ones, ones, c33, kappa23_slice=0.2)

        i2 = 5
        x2_val = grid.axis_coords()[i2]
        p2_minus_p3 = 3.0 / 7.0 - 6.0 / 7.0
        sol = ode_reference(
            w_func=lambda s: -0.15 * np.cos(s),
            forcing=lambda s: 0.5 * p2_minus_p3 * 0.2 * np.cos(x2_val),
            t_nodes=grid.axis_coords(),
            y_t0=0.2,
            t0=0.0,
        )
        assert np.max(np.abs(k23[0, i2, :] - sol.y[0])) < 2e-5

    def test_kappa13_linear_growth_with_kappa12_coupling(self):
        # u varies along x^1, kappa12 along x^2, c = identity:
        # d_3 kappa13 = d_1 p1 - d_2 kappa12, linear growth in x^3.
        grid = SpatialGrid(DELTA, 128)
        amp, k12_amp = 0.01, 0.005
        x1, x2 = grid.mesh(1), grid.mesh(2)
        u = np.broadcast_to(2.0 + amp * np.sin(x1), grid.shape).copy()
        p = exponents_from_u(grid, u)
        ones = np.ones(grid.shape)
        kappa12 = np.broadcast_to(k12_amp * np.sin(x2), grid.shape).copy()
        k13, _ = solve_kappa13(p, ones, ones, ones, kappa12)

        s = sp.symbols("s")
        u_expr = 2.0 + amp * sp.sin(s)
        d = 1 + u_expr + u_expr**2
        dp1 = sp.lambdify(s, sp.diff(-u_expr / d, s), "numpy")
        line = grid.axis_coords()
        rhs = dp1(line)[:, None, None] - k12_amp * np.cos(line)[None, :, None]
        expected = rhs * line[None, None, :]
        assert np.max(np.abs(k13 - expected)) < 1e-8


class TestMomentumResidual:
    def test_homogeneous_identically_zero(self):
        ds = homogeneous_dataset(small_grid())
        for i in (1, 2, 3):
            res = momentum_residual(ds, i)
            assert isinstance(res, TensorField) and res.values.shape == ds.grid.shape
            assert np.all(res.values == 0.0)

    def test_generated_data_refinement(self):
        # the generator is 4th order overall; each doubling should shrink the
        # residual by ~16, asserted loosely at >= 8, with the h^2 bound the
        # contract actually promises checked directly. [measured refinement]
        maxima = {}
        for n in (16, 32):
            ds = u_wave_dataset(SpatialGrid(DELTA, n))
            maxima[n] = max(
                float(np.max(np.abs(momentum_residual(ds, i).values))) for i in (1, 2, 3)
            )
        assert maxima[16] / maxima[32] > 8.0
        h16 = DELTA / 16
        assert maxima[16] < h16**2

    def test_periodic_seam_sets_the_residual_and_the_interior_converges(self):
        # the discrete u-wave kappa_1^3 drifts by seam.kappa13_jump along x^3,
        # and the periodic stencil differentiates across that jump at the 3
        # x^3 nodes on each side of x^3 = 0. [measured] interior 1.72e-10,
        # 7.71e-13, 3.20e-15; seam / (kappa13_jump / h) 1.20, 1.19, 1.18
        interior = []
        for n in (16, 32, 64):
            grid = SpatialGrid(DELTA, n)
            ds = u_wave_dataset(grid)
            res = np.abs(momentum_residual(ds, 1).values)
            at_seam = np.zeros(n, dtype=bool)
            at_seam[:3] = at_seam[-3:] = True
            interior.append(float(np.max(res[..., ~at_seam])))
            ratio = float(np.max(res[..., at_seam])) / (ds.seam.kappa13_jump / grid.h)
            assert 1 / 1.5 <= ratio <= 1.5
        assert all(coarse / fine >= 2.0**4 for coarse, fine in zip(interior, interior[1:]))

    def test_perturbation_lights_up(self):
        grid = small_grid(24)
        ds = u_wave_dataset(grid)
        base = max(float(np.max(np.abs(momentum_residual(ds, i).values))) for i in (1, 2, 3))
        bad = perturb_offdiagonal(ds, amp=0.01, entry=(1, 2), axis=2)
        lit = max(float(np.max(np.abs(momentum_residual(bad, i).values))) for i in (1, 2, 3))
        assert lit > 10.0 * base


class TestResidualEquivalence:
    @pytest.mark.parametrize("seed", [7, 19])
    def test_symbolic_identity_exact(self, seed):
        # frame_I + (1/2) sum_a f_Ia mom_a == 0 as rational functions,
        # evaluated exactly at random rational points (no constraints used).
        gaps, xs = sympy_residual_gaps(seed)
        rng = np.random.default_rng(seed + 1000)
        for _ in range(2):
            point = {
                x: sp.Rational(int(rng.integers(1, 60)), int(rng.integers(61, 120))) for x in xs
            }
            for gap in gaps:
                assert sp.simplify(gap.subs(point)) == 0

    def test_numeric_identity_on_random_data(self):
        grid = small_grid(24)
        ds = random_dataset(grid, seed=11)
        frame = np.stack([frame_momentum_residual(ds, i).values for i in (1, 2, 3)])
        mom = np.stack([momentum_residual(ds, i).values for i in (1, 2, 3)])
        f = unpack_slots(frame_matrix_from_metric(ds.c), symmetric=False)
        combo = -0.5 * np.einsum("ia...,a...->i...", f, mom)
        scale = np.max(np.abs(frame))
        rel = np.max(np.abs(frame - combo)) / scale
        assert rel <= 1e-6 + 10.0 * grid.h**4

    def test_row3_single_factor_to_roundoff(self):
        # row 3 involves only x^3 derivatives of fields identical up to
        # rounding, so the single-factor form holds to roundoff, off-shell.
        grid = small_grid(16)
        ds = random_dataset(grid, seed=5)
        frame3 = frame_momentum_residual(ds, 3).values
        mom3 = momentum_residual(ds, 3).values
        gap = frame3 + 0.5 * frame_matrix_from_metric(ds.c)[2] * mom3
        assert np.max(np.abs(gap)) < 1e-12 * np.max(np.abs(frame3))

    def test_homogeneous_zero(self):
        ds = homogeneous_dataset(small_grid())
        for i in (1, 2, 3):
            assert np.all(frame_momentum_residual(ds, i).values == 0.0)

    @pytest.mark.parametrize(
        "family",
        [u_wave_dataset, layered_dataset, lambda grid: random_dataset(grid, seed=3)],
        ids=["u-wave", "layered", "random"],
    )
    @pytest.mark.parametrize("n", [8, 12])
    def test_matches_the_whole_frame_reference_bit_for_bit(self, family, n):
        # f formed slot by slot from c, with in-place products, against the
        # whole f and h matrices and plain expressions; tobytes also tells
        # +0.0 from -0.0
        ds = family(small_grid(n))
        for big_i in (1, 2, 3):
            got = frame_momentum_residual(ds, big_i).values
            assert got.tobytes() == frame_momentum_residual_reference(ds, big_i).tobytes()

    def test_numeric_identity_on_perturbed_data(self):
        grid = small_grid(24)
        bad = perturb_offdiagonal(u_wave_dataset(grid), amp=0.01, entry=(1, 2), axis=2)
        frame = np.stack([frame_momentum_residual(bad, i).values for i in (1, 2, 3)])
        mom = np.stack([momentum_residual(bad, i).values for i in (1, 2, 3)])
        f = unpack_slots(frame_matrix_from_metric(bad.c), symmetric=False)
        combo = -0.5 * np.einsum("ia...,a...->i...", f, mom)
        scale = np.max(np.abs(frame))
        assert scale > 1e-4  # the perturbation actually lights up
        assert np.max(np.abs(frame - combo)) / scale <= 1e-6 + 10.0 * grid.h**4


class TestAssembleDataset:
    def test_free_input_count_matches_contract(self):
        # three 3-variable fields + three 2-variable slices, nothing else
        params = list(inspect.signature(assemble_dataset).parameters)
        assert params == [
            "p",
            "c22",
            "c33",
            "kappa12",
            "c11_slice",
            "kappa23_slice",
            "kappa13_slice",
        ]

        # the free data's defaults, stated in the signatures
        def defaults(fn):
            params = inspect.signature(fn).parameters.values()
            return {q.name: q.default for q in params if q.default is not q.empty}

        assert defaults(assemble_dataset) == {
            "kappa12": 0.0,
            "c11_slice": 1.0,
            "kappa23_slice": 0.0,
            "kappa13_slice": 0.0,
        }
        assert defaults(solve_c11) == {"c11_slice": 1.0}
        assert defaults(solve_kappa23) == {"kappa23_slice": 0.0}
        assert defaults(solve_kappa13) == {"kappa13_slice": 0.0}

    def test_homogeneous_inputs_reproduce_identity(self):
        grid = small_grid()
        p = exponents_from_u(grid, 2.0)
        ds = assemble_dataset(p, c22=1.0, c33=1.0)
        assert np.all(ds.c[0] == 1.0)
        assert np.all(ds.c[SLOTS.index((0, 1))] == 0.0)
        assert np.all(_kappa_fields(ds)[2] == 0.0)
        assert ds.seam is not None and ds.seam.max_jump == 0.0

    def test_localized_grid_has_no_seam(self):
        grid = small_grid(8, "localized")
        p = exponents_from_u(grid, 2.0)
        ones = np.ones(grid.shape)
        assert solve_c11(p, ones)[1] is None
        assert solve_kappa23(p, ones, ones, ones)[1] is None
        assert solve_kappa13(p, ones, ones, ones, kappa12=0.0)[1] is None
        assert assemble_dataset(p, c22=1.0, c33=1.0).seam is None

    def test_u_wave_percolates_and_seam_small(self):
        grid = small_grid(24)
        ds = u_wave_dataset(grid)
        # x^3-summation roundoff only
        assert ds.seam.c11_jump < 1e-15
        # right side identically zero in floats
        assert ds.seam.kappa23_jump == 0.0
        # stencil-vs-closed-form mismatch of the c33 profile; truncation
        # level, measured 1.9e-7 at n=24 and falling at 4th order
        assert ds.seam.kappa13_jump < 1e-6
        _, kappa23, kappa13 = _kappa_fields(ds)
        assert np.all(kappa23 == 0.0)
        assert np.all(ds.c[SLOTS.index((0, 1))] == 0.0)
        assert np.max(np.abs(kappa13)) < 1e-6

    def test_seam_matches_reevaluated_right_sides_bitwise(self):
        # every input varies along every axis, so all three loop integrals
        # are far from zero and a crossed integrand would show
        grid = small_grid(16)
        x1, x2, x3 = grid.mesh(1), grid.mesh(2), grid.mesh(3)
        u = 2.0 + 0.2 * np.sin(x1 + x3) * np.cos(x2)
        p = exponents_from_u(grid, u)
        c22 = np.exp(0.3 * np.sin(x2 - x3) * np.cos(x1))
        c33 = np.exp(0.2 * np.cos(x1 + x2 + x3))
        kappa12 = 0.1 * np.sin(x1 + 2.0 * x2) * np.cos(x3) + np.zeros(grid.shape)
        ds = assemble_dataset(p, c22, c33, kappa12)
        want = seam_reference(p, ds.c[0], c22, c33, kappa12)
        got = (ds.seam.c11_jump, ds.seam.kappa23_jump, ds.seam.kappa13_jump)
        assert got == want
        assert min(got) > 1e-3

    def test_u_wave_residuals_small(self):
        # truncation floor of the generator; measured 9.7e-5 at n=24
        grid = small_grid(24)
        ds = u_wave_dataset(grid)
        for i in (1, 2, 3):
            res = float(np.max(np.abs(momentum_residual(ds, i).values)))
            assert res < 2e-4, (i, res)

    def test_layered_family_zero_seam_and_zero_residual(self):
        # the family promised for periodic runs: nothing depends on x^2 or
        # x^3, so transports and residuals vanish identically, yet the data
        # are inhomogeneous with all off-diagonal entries active
        grid = small_grid(16)
        ds = layered_dataset(grid)
        assert ds.seam.c11_jump == 0.0
        assert ds.seam.kappa23_jump == 0.0
        assert ds.seam.kappa13_jump == 0.0
        for i in (1, 2, 3):
            assert np.all(momentum_residual(ds, i).values == 0.0)
        for pair in ((0, 1), (0, 2), (1, 2)):
            assert np.max(np.abs(ds.c[SLOTS.index(pair)])) > 1e-3
        assert np.ptp(ds.c[0]) > 0.1

    def test_random_dataset_type_invariants(self):
        grid = small_grid(16)
        ds = random_dataset(grid, seed=23)
        assert np.all(ds.c[0] > 0)
        k12 = (ds.p.p1 - ds.p.p2) * ds.c[SLOTS.index((0, 1))] / ds.c[1]
        assert np.max(np.abs(_kappa_fields(ds)[0] - k12)) < 1e-10
        # differential constraint deliberately violated
        assert np.max(np.abs(momentum_residual(ds, 1).values)) > 1e-3


# what a NaN at one point of each data-stage input is rejected by
_NAN_TEXT = {
    "u": "u must be finite and exceed 1",
    "p1": "exponent relations violated",
    "p2": "exponent relations violated",
    "p3": "exponent relations violated",
    "c22": "c22 must be finite and positive everywhere",
    "c33": "c33 must be finite and positive everywhere",
    "kappa12": "kappa12 must be finite",
    "c11_slice": "c11_slice must be finite",
    "kappa23_slice": "kappa23_slice must be finite",
    "kappa13_slice": "kappa13_slice must be finite",
}


@pytest.mark.parametrize("case", ["shape", "nan", "none"])
@pytest.mark.parametrize("name", list(_NAN_TEXT))
def test_every_data_stage_input_rejects_a_bad_value(name, case):
    # each input in turn gets a wrong shape, a NaN at one point or None,
    # with valid values everywhere else
    grid = small_grid(8)
    p = exponents_from_u(grid, 2.0)
    exps = {"p1": p.p1, "p2": p.p2, "p3": p.p3}
    inputs = {
        "c22": 1.0,
        "c33": 1.0,
        "kappa12": 0.0,
        "c11_slice": 1.0,
        "kappa23_slice": 0.0,
        "kappa13_slice": 0.0,
    }
    is_slice = name.endswith("_slice")
    if case == "shape":
        bad = np.ones((7, 7))
        text = f"{name} must be scalar or shape" if is_slice else f"{name} has shape"
    elif case == "nan":
        valid = {"u": 2.0, **exps, **inputs}[name]
        bad = np.broadcast_to(valid, (8, 8) if is_slice else grid.shape).copy()
        bad[(1, 2, 3)[: bad.ndim]] = np.nan
        text = _NAN_TEXT[name]
    else:
        bad = None
        text = f"{name} must be finite" if is_slice else f"{name} is required"
    with pytest.raises((ConfigError, DegenerateExponentsError), match=f"^{text}"):
        if name == "u":
            exponents_from_u(grid, bad)
        elif name in exps:
            KasnerExponents(grid, **{**exps, name: bad})
        else:
            assemble_dataset(p, **{**inputs, name: bad})


def _set(c, i, j, value, point=(1, 2, 3)):
    c[(SLOTS.index((i, j)),) + point] = value


class TestDataSetValidation:
    @pytest.mark.parametrize(
        "tamper",
        [
            lambda c: _set(c, 1, 2, np.nan),
            lambda c: _set(c, 0, 2, -np.inf),
            lambda c: _set(c, 1, 1, -0.5),
            lambda c: _set(c, 2, 2, 0.0),
        ],
        ids=["nan", "inf", "negative_c22", "zero_c33"],
    )
    def test_error_text_matches_whole_array_checks(self, tamper):
        grid = small_grid(8)
        ds = random_dataset(grid, seed=2)
        c = ds.c.copy()
        tamper(c)
        with pytest.raises(ConfigError) as want:
            metric_check_reference(c)
        with pytest.raises(ConfigError) as got:
            AsymptoticDataSet(ds.p, c)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("entry", [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
    def test_round_trip_error_text_matches_whole_array_check(self, monkeypatch, entry):
        grid = small_grid(8)
        ds = random_dataset(grid, seed=2)
        frame = asymdata.frame_matrix_from_metric

        def skewed_frame(c):
            f = frame(c)
            f[(SLOTS.index(entry), 1, 2, 3)] *= 1.01
            return f

        monkeypatch.setattr(asymdata, "frame_matrix_from_metric", skewed_frame)
        with pytest.raises(ConfigError) as want:
            round_trip_reference(skewed_frame(ds.c), ds.c, metric_check_reference(ds.c))
        with pytest.raises(ConfigError, match="^metric/frame round trip failed") as got:
            AsymptoticDataSet(ds.p, ds.c)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("slot", range(6))
    @pytest.mark.parametrize("share, fails", [(1.2, True), (0.8, False)])
    def test_round_trip_reads_every_slot_at_its_tolerance(self, monkeypatch, slot, share, fails):
        # a frame built from c with one slot moved by `share` of the
        # tolerance: the round trip must fail beyond it and pass within it
        grid = small_grid(8)
        ds = random_dataset(grid, seed=2)
        shift = share * DATASET_REL_TOL * metric_check_reference(ds.c)
        frame = asymdata.frame_matrix_from_metric

        def shifted_frame(c):
            moved = c.copy()
            moved[slot, 1, 2, 3] += shift
            return frame(moved)

        monkeypatch.setattr(asymdata, "frame_matrix_from_metric", shifted_frame)
        if not fails:
            AsymptoticDataSet(ds.p, ds.c)
            return
        with pytest.raises(ConfigError) as want:
            round_trip_reference(shifted_frame(ds.c), ds.c, metric_check_reference(ds.c))
        with pytest.raises(ConfigError, match="^metric/frame round trip failed") as got:
            AsymptoticDataSet(ds.p, ds.c)
        assert str(got.value) == str(want.value)

    def test_rejects_a_full_matrix_by_its_shape(self):
        # the packed layout cannot hold an asymmetric c; a (3, 3) c is refused
        grid = small_grid(8)
        ds = random_dataset(grid, seed=2)
        text = r"^c must have the packed shape \(6,\) \+ grid.shape, got \(3, 3, 8, 8, 8\)$"
        with pytest.raises(ConfigError, match=text):
            AsymptoticDataSet(ds.p, unpack_slots(ds.c, symmetric=True))


class TestPackedLayout:
    @pytest.mark.parametrize(
        "family",
        [
            homogeneous_dataset,
            u_wave_dataset,
            layered_dataset,
            lambda grid: random_dataset(grid, seed=3),
        ],
        ids=["homogeneous", "u-wave", "layered", "random"],
    )
    @pytest.mark.parametrize("n", [8, 12])
    def test_slots_equal_the_full_matrix_closed_forms_bitwise(self, family, n):
        # tobytes also tells +0.0 from -0.0
        ds = family(small_grid(n))
        c = unpack_slots(ds.c, symmetric=True)
        f = frame_matrix_reference(c)
        got = frame_matrix_from_metric(ds.c)
        assert unpack_slots(got, symmetric=False).tobytes() == f.tobytes()
        # the slot-by-slot reader of the frame residual forms the same f
        slots = asymdata._FrameSlots(ds.c)
        assert np.stack([slots[s] for s in range(len(SLOTS))]).tobytes() == got.tobytes()
        h = _coframe_slots(got)
        assert unpack_slots(h, symmetric=False).tobytes() == coframe_matrix_reference(f).tobytes()
        assert _coframe_slots(slots).tobytes() == h.tobytes()
        # the whole matrices level 0 reads: the same bits, less the signs of
        # the entries that vanish identically, which are +0.0
        for inverse, full in ((False, f), (True, coframe_matrix_reference(f))):
            want = np.where(full.any(axis=(2, 3, 4), keepdims=True), full, 0.0)
            assert asymdata.triangular_matrix(got, inverse).tobytes() == want.tobytes()
        for got, want in zip(_kappa_fields(ds), kappa_reference(ds.p, c)):
            assert got.tobytes() == want.tobytes()

    def test_dataset_holds_each_independent_entry_once(self):
        # c 6, p 3: no mirrored or zero entry is stored, and neither f nor h
        # nor the kappa fields, which are formed from c where they are read
        grid = small_grid(8)
        ds = random_dataset(grid, seed=0)
        held = sum(a.nbytes for obj in (ds, ds.p) for a in vars(obj).values() if isinstance(a, np.ndarray))
        assert held == 9 * np.zeros(grid.shape).nbytes


def _working_fields(call, grid):
    """Traced peak of call() beyond what it returns, in grid fields."""
    tracemalloc.start()
    try:
        out = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return (peak - current) / np.zeros(grid.shape).nbytes


class TestDataStageMemory:
    # every temporary of the data stage is one grid field: beyond what a call
    # returns it holds a few of them, never a whole (3, 3) matrix of 9 fields
    # (measured at n = 12: 8.17 for assembly and validation, 4.05 to 5.05
    # for momentum_residual and 7.11 to 7.96 for frame_momentum_residual)
    WHOLE_MATRIX = 9.0

    def test_assembly_holds_no_whole_matrix_temporary(self):
        grid = small_grid(12)
        u = u_wave_profile(grid)
        p = exponents_from_u(grid, u)
        c22 = np.broadcast_to(np.exp(0.3 * np.sin(grid.mesh(3))), grid.shape).copy()
        c33 = u_wave_c33(u)
        assert _working_fields(lambda: assemble_dataset(p, c22, c33), grid) < self.WHOLE_MATRIX

    def test_validation_holds_no_whole_matrix_temporary(self):
        grid = small_grid(12)
        ds = random_dataset(grid, seed=0)
        assert _working_fields(lambda: AsymptoticDataSet(ds.p, ds.c), grid) < self.WHOLE_MATRIX

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_momentum_residual_holds_no_kappa_matrix(self, i):
        grid = small_grid(12)
        ds = random_dataset(grid, seed=0)
        assert _working_fields(lambda: momentum_residual(ds, i), grid) < self.WHOLE_MATRIX

    @pytest.mark.parametrize("big_i", [1, 2, 3])
    def test_frame_momentum_residual_holds_no_coframe_matrix(self, big_i):
        grid = small_grid(12)
        ds = random_dataset(grid, seed=0)
        assert _working_fields(lambda: frame_momentum_residual(ds, big_i), grid) < self.WHOLE_MATRIX


class TestUWaveClosedForm:
    def test_c33_solves_transport_condition_symbolically(self):
        u = sp.symbols("u", positive=True)
        d = 1 + u + u**2
        p1 = -u / d
        p3 = u * (1 + u) / d
        target = 2 * sp.diff(p1, u) / (p3 - p1)
        expr = (u**2 + u + 1) / (u * (u + 2)) * sp.exp(
            2 / sp.sqrt(3) * sp.atan((2 * u + 1) / sp.sqrt(3))
        )
        assert sp.simplify(sp.diff(sp.log(expr), u) - target) == 0

    def test_c33_matches_symbolic_normalization(self):
        u = sp.symbols("u", positive=True)
        expr = (u**2 + u + 1) / (u * (u + 2)) * sp.exp(
            2 / sp.sqrt(3) * sp.atan((2 * u + 1) / sp.sqrt(3))
        )
        func = sp.lambdify(u, expr, "numpy")
        pts = np.array([1.5, 2.0, 2.5, 3.0])
        expected = func(pts) / func(2.0)
        assert np.max(np.abs(u_wave_c33(pts) - expected)) < 1e-14

    def test_normalized_at_reference(self):
        assert u_wave_c33(2.0) == pytest.approx(1.0, abs=1e-15)


class TestRandomFamily:
    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("seed", [0, 3, [0, 1], [7, 5]], ids=["0", "3", "0-1", "7-5"])
    def test_matches_per_field_reference_bit_for_bit(self, n, seed):
        # sharing each mode's cos and sin across the fields keeps every
        # field's draws, accumulation order and l1 sum
        grid = small_grid(n)
        ds, ref = random_dataset(grid, seed), random_dataset_reference(grid, seed)
        assert ds.c.tobytes() == ref.c.tobytes()
        assert ds.p.as_array().tobytes() == ref.p.as_array().tobytes()

    def test_one_cos_and_one_sin_per_mode(self, monkeypatch):
        calls = []
        for name in ("cos", "sin"):
            real = getattr(np, name)
            monkeypatch.setattr(np, name, lambda x, real=real, name=name: calls.append(name) or real(x))
        random_dataset(SpatialGrid(2 * np.pi, 8), seed=0)
        assert (calls.count("cos"), calls.count("sin")) == (62, 62)

    def test_documented_sup_bounds(self, monkeypatch):
        drawn = []
        real = families.exponents_from_u
        monkeypatch.setattr(families, "exponents_from_u", lambda grid, u: drawn.append(u) or real(grid, u))
        ds = random_dataset(small_grid(12), seed=0)
        assert np.max(np.abs(drawn[0] - U0)) <= 0.25
        assert np.max(np.abs(np.log(ds.c[:3]))) <= 0.3
        assert np.max(np.abs(ds.c[3:])) <= 0.2
