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

from kasnerlab import asymdata
from kasnerlab.asymdata import (
    AsymptoticDataSet,
    KasnerExponents,
    assemble_dataset,
    coframe_matrix_from_frame,
    exponents_from_u,
    frame_matrix_from_metric,
    frame_momentum_residual,
    metric_from_frame_matrix,
    momentum_residual,
    solve_c11,
    solve_kappa13,
    solve_kappa23,
)
from kasnerlab.errors import ConfigError, DegenerateExponentsError
from kasnerlab.families import (
    homogeneous_dataset,
    layered_dataset,
    random_dataset,
    u_wave_c33,
    u_wave_dataset,
    u_wave_profile,
)
from kasnerlab.grids import ScalarField, SpatialGrid

from oracles import (
    metric_check_reference,
    ode_reference,
    perturb_offdiagonal,
    quad_cumulative,
    round_trip_reference,
    seam_reference,
    sympy_residual_gaps,
    unchecked_exponents,
)

DELTA = 2.0 * np.pi


def small_grid(n=16, mode="periodic"):
    return SpatialGrid(DELTA, n, mode)


class TestKasnerExponents:
    def test_u2_exact_sevenths(self):
        grid = small_grid()
        p = exponents_from_u(ScalarField(grid, np.full(grid.shape, 2.0)))
        assert np.max(np.abs(p.p1 + 2.0 / 7.0)) < 1e-15
        assert np.max(np.abs(p.p2 - 3.0 / 7.0)) < 1e-15
        assert np.max(np.abs(p.p3 - 6.0 / 7.0)) < 1e-15
        assert abs(p.eps - 1.0 / 7.0) < 1e-15

    def test_u3_exact_thirteenths(self):
        grid = small_grid()
        p = exponents_from_u(ScalarField(grid, np.full(grid.shape, 3.0)))
        assert np.max(np.abs(p.p1 + 3.0 / 13.0)) < 1e-15
        assert np.max(np.abs(p.p2 - 4.0 / 13.0)) < 1e-15
        assert np.max(np.abs(p.p3 - 12.0 / 13.0)) < 1e-15

    def test_pointwise_relations_u_wave(self):
        grid = small_grid()
        p = exponents_from_u(ScalarField(grid, u_wave_profile(grid)))
        assert np.max(np.abs(p.p1 + p.p2 + p.p3 - 1.0)) < 1e-12
        assert np.max(np.abs(p.p1**2 + p.p2**2 + p.p3**2 - 1.0)) < 1e-12
        # max u = 2.1 lands exactly on a grid point when 4 | n, so eps = 1/d(2.1)
        assert p.eps == pytest.approx(1.0 / (1.0 + 2.1 + 2.1**2), rel=1e-12)

    def test_rejects_u_at_or_below_one(self):
        grid = small_grid()
        u = np.full(grid.shape, 2.0)
        u[3, 1, 4] = 0.9
        with pytest.raises(DegenerateExponentsError) as err:
            exponents_from_u(ScalarField(grid, u))
        assert "3, 1, 4" in str(err.value)

    def test_raw_input_validated(self):
        grid = small_grid()
        p = exponents_from_u(ScalarField(grid, np.full(grid.shape, 2.0)))
        rebuilt = KasnerExponents(grid, p.p1, p.p2, p.p3)
        assert rebuilt.eps == pytest.approx(p.eps)
        with pytest.raises(ConfigError):
            KasnerExponents(grid, p.p1 + 5e-12, p.p2, p.p3)
        with pytest.raises(DegenerateExponentsError):
            KasnerExponents(grid, p.p2, p.p1, p.p3)
        with pytest.raises(ConfigError, match="ScalarField"):
            exponents_from_u(np.full(grid.shape, 2.0))

    def test_degeneracy_guard_near_one(self):
        grid = small_grid()
        # u = 1e5 drives 1 - p3 = 1/(1 + u + u^2) ~ 1e-10 below the 1e-8 floor
        with pytest.raises(DegenerateExponentsError):
            exponents_from_u(ScalarField(grid, np.full(grid.shape, 1e5)))

    def test_unchecked_channel_for_violations(self):
        grid = small_grid()
        p = unchecked_exponents(
            grid, np.full(grid.shape, -0.3), np.full(grid.shape, 0.5), np.full(grid.shape, 0.9)
        )
        assert abs(p.eps - 0.1) < 1e-15


class TestFrameMatrices:
    def test_identity_metric_gives_identity_frames(self):
        grid = small_grid(8)
        c = np.zeros((3, 3) + grid.shape)
        c[0, 0] = c[1, 1] = c[2, 2] = 1.0
        f = frame_matrix_from_metric(c)
        h = coframe_matrix_from_frame(f)
        eye = np.zeros_like(c)
        eye[0, 0] = eye[1, 1] = eye[2, 2] = 1.0
        assert np.array_equal(f, eye)
        assert np.array_equal(h, eye)

    def test_round_trip_metric_frame_metric(self):
        grid = small_grid(8)
        rng = np.random.default_rng(3)
        c = np.zeros((3, 3) + grid.shape)
        for i in range(3):
            c[i, i] = np.exp(rng.normal(size=grid.shape))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            c[i, j] = c[j, i] = 0.3 * rng.normal(size=grid.shape)
        back = metric_from_frame_matrix(frame_matrix_from_metric(c))
        assert np.max(np.abs(back - c)) < 1e-12 * np.max(np.abs(c))

    def test_coframe_is_matrix_inverse(self):
        grid = small_grid(8)
        rng = np.random.default_rng(4)
        f = np.zeros((3, 3) + grid.shape)
        for i in range(3):
            f[i, i] = np.exp(0.5 * rng.normal(size=grid.shape))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            f[i, j] = rng.normal(size=grid.shape)
        h = coframe_matrix_from_frame(f)
        prod = np.einsum("ia...,ac...->ic...", f, h)
        eye = np.zeros_like(prod)
        eye[0, 0] = eye[1, 1] = eye[2, 2] = 1.0
        assert np.max(np.abs(prod - eye)) < 1e-13


class TestSolveC11:
    def test_constant_extension(self):
        grid = small_grid()
        p = exponents_from_u(ScalarField(grid, np.full(grid.shape, 2.0)))
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
        p = exponents_from_u(ScalarField(grid, u))
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
        expected = np.exp(-(p.p3 - p.p2) / (p.p3 - p.p1) * np.log(ds.c[1, 1]))
        assert np.max(np.abs(ds.c[0, 0] - expected)) < 1e-4

    def test_rejects_nonpositive_c22(self):
        grid = small_grid()
        p = exponents_from_u(ScalarField(grid, np.full(grid.shape, 2.0)))
        bad = np.ones(grid.shape)
        bad[0, 0, 0] = -1.0
        with pytest.raises(ConfigError):
            solve_c11(p, bad)


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
def test_solves_name_the_nonpositive_field(solve, field):
    grid = small_grid()
    p = exponents_from_u(ScalarField(grid, np.full(grid.shape, 2.0)))
    diag = {name: np.ones(grid.shape) for name in ("c11", "c22", "c33")}
    diag[field][3, 1, 4] = 0.0
    with pytest.raises(ConfigError, match=f"^{field} must be positive"):
        if solve == "c11":
            solve_c11(p, diag["c22"])
        elif solve == "kappa23":
            solve_kappa23(p, diag["c11"], diag["c22"], diag["c33"])
        else:
            solve_kappa13(p, diag["c11"], diag["c22"], diag["c33"], kappa12=0.0)


class TestKappaTransports:
    def test_homogeneous_zero_slice_stays_zero(self):
        grid = small_grid()
        p = exponents_from_u(ScalarField(grid, np.full(grid.shape, 2.0)))
        ones = np.ones(grid.shape)
        k23, _ = solve_kappa23(p, ones, ones, ones)
        k13, _ = solve_kappa13(p, ones, ones, ones, kappa12=0.0)
        assert np.all(k23 == 0.0)
        assert np.all(k13 == 0.0)

    def test_kappa23_linear_growth_against_analytic(self):
        # exponents vary along x^2 only, c = identity: the transport reduces
        # to d_3 kappa = d_2 p2, so kappa grows linearly in x^3.
        grid = SpatialGrid(DELTA, 128)
        amp = 0.01
        x2 = grid.mesh(2)
        u = np.broadcast_to(2.0 + amp * np.sin(x2), grid.shape).copy()
        p = exponents_from_u(ScalarField(grid, u))
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
        p = exponents_from_u(ScalarField(grid, np.full(grid.shape, 2.0)))
        ones = np.ones(grid.shape)
        c33 = np.broadcast_to(np.exp(0.3 * np.sin(x3)), grid.shape).copy()
        k23, _ = solve_kappa23(p, ones, ones, c33, kappa23_slice=0.2)
        expected = 0.2 * np.exp(-0.15 * np.sin(x3))
        assert np.max(np.abs(k23 - expected)) < 1e-13

    def test_kappa23_full_ode_against_reference(self):
        grid = SpatialGrid(DELTA, 48)
        x2, x3 = grid.mesh(2), grid.mesh(3)
        p = exponents_from_u(ScalarField(grid, np.full(grid.shape, 2.0)))
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
        p = exponents_from_u(ScalarField(grid, u))
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

    def test_degenerate_gap_flagged(self):
        grid = small_grid()
        # built past the constructor's own gap check, so the solver's guard fires
        p = unchecked_exponents(
            grid, np.full(grid.shape, -0.2), np.full(grid.shape, 0.6), np.full(grid.shape, 0.6 + 1e-9)
        )
        ones = np.ones(grid.shape)
        with pytest.raises(DegenerateExponentsError, match="exponent gaps too small"):
            solve_kappa23(p, ones, ones, ones)


class TestMomentumResidual:
    def test_homogeneous_identically_zero(self):
        ds = homogeneous_dataset(small_grid())
        for i in (1, 2, 3):
            res = momentum_residual(ds, i)
            assert isinstance(res, ScalarField)
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
        combo = -0.5 * np.einsum("ia...,a...->i...", ds.f, mom)
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
        gap = frame3 + 0.5 * ds.f[2, 2] * mom3
        assert np.max(np.abs(gap)) < 1e-12 * np.max(np.abs(frame3))

    def test_homogeneous_zero(self):
        ds = homogeneous_dataset(small_grid())
        for i in (1, 2, 3):
            assert np.all(frame_momentum_residual(ds, i).values == 0.0)

    def test_numeric_identity_on_perturbed_data(self):
        grid = small_grid(24)
        bad = perturb_offdiagonal(u_wave_dataset(grid), amp=0.01, entry=(1, 2), axis=2)
        frame = np.stack([frame_momentum_residual(bad, i).values for i in (1, 2, 3)])
        mom = np.stack([momentum_residual(bad, i).values for i in (1, 2, 3)])
        combo = -0.5 * np.einsum("ia...,a...->i...", bad.f, mom)
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

    def test_homogeneous_inputs_reproduce_identity(self):
        grid = small_grid()
        p = exponents_from_u(ScalarField(grid, np.full(grid.shape, 2.0)))
        ds = assemble_dataset(p, c22=1.0, c33=1.0)
        assert np.all(ds.c[0, 0] == 1.0)
        assert np.all(ds.c[0, 1] == 0.0)
        assert np.all(ds.kappa13 == 0.0)
        assert ds.seam is not None and ds.seam.max_jump == 0.0

    def test_localized_grid_has_no_seam(self):
        grid = small_grid(8, "localized")
        p = exponents_from_u(ScalarField(grid, np.full(grid.shape, 2.0)))
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
        assert np.all(ds.kappa23 == 0.0)
        assert np.all(ds.c[0, 1] == 0.0)
        assert np.max(np.abs(ds.kappa13)) < 1e-6

    def test_seam_matches_reevaluated_right_sides_bitwise(self):
        # every input varies along every axis, so all three loop integrals
        # are far from zero and a crossed integrand would show
        grid = small_grid(16)
        x1, x2, x3 = grid.mesh(1), grid.mesh(2), grid.mesh(3)
        u = 2.0 + 0.2 * np.sin(x1 + x3) * np.cos(x2)
        p = exponents_from_u(ScalarField(grid, u))
        c22 = np.exp(0.3 * np.sin(x2 - x3) * np.cos(x1))
        c33 = np.exp(0.2 * np.cos(x1 + x2 + x3))
        kappa12 = 0.1 * np.sin(x1 + 2.0 * x2) * np.cos(x3) + np.zeros(grid.shape)
        ds = assemble_dataset(p, c22, c33, kappa12)
        want = seam_reference(p, ds.c[0, 0], c22, c33, kappa12)
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
            assert np.max(np.abs(ds.c[pair])) > 1e-3
        assert np.ptp(ds.c[0, 0]) > 0.1

    def test_random_dataset_type_invariants(self):
        grid = small_grid(16)
        ds = random_dataset(grid, seed=23)
        assert np.all(ds.c[0, 0] > 0)
        assert np.array_equal(ds.c, np.swapaxes(ds.c, 0, 1))
        k12 = (ds.p.p1 - ds.p.p2) * ds.c[0, 1] / ds.c[1, 1]
        assert np.max(np.abs(ds.kappa12 - k12)) < 1e-10
        # differential constraint deliberately violated
        assert np.max(np.abs(momentum_residual(ds, 1).values)) > 1e-3

    def test_scalarfield_inputs_accepted(self):
        grid = small_grid()
        p = exponents_from_u(ScalarField(grid, np.full(grid.shape, 2.0)))
        ds = assemble_dataset(
            p,
            c22=ScalarField(grid, np.ones(grid.shape)),
            c33=ScalarField(grid, np.ones(grid.shape)),
        )
        assert np.all(ds.c[1, 1] == 1.0)

    def test_dataset_rejects_tampered_symmetry(self):
        grid = small_grid()
        ds = homogeneous_dataset(grid)
        c = ds.c.copy()
        c[0, 1] += 1e-3
        with pytest.raises(ConfigError):
            AsymptoticDataSet(grid, ds.p, c)


def _set(c, i, j, value, point=(1, 2, 3)):
    c[(i, j) + point] = value


class TestDataSetValidation:
    @pytest.mark.parametrize(
        "tamper",
        [
            lambda c: _set(c, 1, 2, np.nan),
            lambda c: _set(c, 0, 2, -np.inf),
            lambda c: _set(c, 1, 1, -0.5),
            lambda c: _set(c, 2, 2, 0.0),
            lambda c: _set(c, 0, 2, c[(0, 2, 1, 2, 3)] + 1e-3),
            lambda c: _set(c, 2, 1, c[(2, 1, 1, 2, 3)] - 1e-3),
        ],
        ids=["nan", "inf", "negative_c22", "zero_c33", "asymmetric_c13", "asymmetric_c32"],
    )
    def test_error_text_matches_whole_array_checks(self, tamper):
        grid = small_grid(8)
        ds = random_dataset(grid, seed=2)
        c = ds.c.copy()
        tamper(c)
        with pytest.raises(ConfigError) as want:
            metric_check_reference(c)
        with pytest.raises(ConfigError) as got:
            AsymptoticDataSet(grid, ds.p, c)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("entry", [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
    def test_round_trip_error_text_matches_whole_array_check(self, monkeypatch, entry):
        grid = small_grid(8)
        ds = random_dataset(grid, seed=2)
        frame = asymdata.frame_matrix_from_metric

        def skewed_frame(c):
            f = frame(c)
            f[entry + (1, 2, 3)] *= 1.01
            return f

        monkeypatch.setattr(asymdata, "frame_matrix_from_metric", skewed_frame)
        with pytest.raises(ConfigError) as want:
            round_trip_reference(skewed_frame(ds.c), ds.c, metric_check_reference(ds.c))
        with pytest.raises(ConfigError, match="^metric/frame round trip failed") as got:
            AsymptoticDataSet(grid, ds.p, ds.c)
        assert str(got.value) == str(want.value)

    def test_round_trip_reads_both_mirrored_entries(self, monkeypatch):
        # c13 - c31 = 0.6 of the tolerance passes the symmetry check; a frame
        # entry moved to put c(f)_13 0.6 of the tolerance above c13 leaves
        # c(f)_13 - c31 at 1.2 of it, so only the mirrored entry fails
        grid = small_grid(8)
        ds = random_dataset(grid, seed=2)
        point = (1, 2, 3)
        shift = 0.6 * asymdata.DATASET_REL_TOL * metric_check_reference(ds.c)
        c = ds.c.copy()
        c[(2, 0) + point] -= shift
        frame = asymdata.frame_matrix_from_metric

        def shifted_frame(c):
            f = frame(c)
            f[(0, 2) + point] -= shift * f[(0, 0) + point] * f[(2, 2) + point] ** 2
            return f

        monkeypatch.setattr(asymdata, "frame_matrix_from_metric", shifted_frame)
        with pytest.raises(ConfigError) as want:
            round_trip_reference(shifted_frame(c), c, metric_check_reference(c))
        with pytest.raises(ConfigError, match="^metric/frame round trip failed") as got:
            AsymptoticDataSet(grid, ds.p, c)
        assert str(got.value) == str(want.value)


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
    # returns it holds a few of them (measured 5.0 to 6.1 at n = 12), never a
    # whole (3, 3) matrix of 9 fields
    WHOLE_MATRIX = 9.0

    def test_assembly_holds_no_whole_matrix_temporary(self):
        grid = small_grid(12)
        u = u_wave_profile(grid)
        p = exponents_from_u(ScalarField(grid, u))
        c22 = np.broadcast_to(np.exp(0.3 * np.sin(grid.mesh(3))), grid.shape).copy()
        c33 = u_wave_c33(u)
        assert _working_fields(lambda: assemble_dataset(p, c22, c33), grid) < self.WHOLE_MATRIX

    def test_validation_holds_no_whole_matrix_temporary(self):
        grid = small_grid(12)
        ds = random_dataset(grid, seed=0)
        assert _working_fields(lambda: AsymptoticDataSet(grid, ds.p, ds.c), grid) < self.WHOLE_MATRIX

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_momentum_residual_holds_no_kappa_matrix(self, i):
        grid = small_grid(12)
        ds = random_dataset(grid, seed=0)
        assert _working_fields(lambda: momentum_residual(ds, i), grid) < self.WHOLE_MATRIX


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
