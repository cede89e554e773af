"""Tests for slice geometry: coframes, connection coefficients, curvature,
and the constraint/torsion residuals.

Dual-route checks dominate: every FD geometry quantity is compared against
an independent coordinate-based oracle (Christoffel route) or a symbolic
computation. Bounds marked [measured] were frozen from refinement studies
(values quoted in comments) and sit 2-5x above the observed level.
"""

import re
import tracemalloc

import numpy as np
import pytest
import sympy as sp

from kasnerlab import asymdata, geometry
from kasnerlab.asymdata import exponents_from_u
from kasnerlab.errors import ConfigError, SingularFrameError
from kasnerlab.families import random_dataset, u_wave_dataset
from kasnerlab.geometry import (
    FrameState,
    _scalar_curvature,
    _unpack_gamma,
    coframe_from_frame,
    frame_determinant,
    gamma_from_frame,
    hamiltonian_residual,
    momentum_residual_evolved,
    spacetime_ricci,
    spatial_ricci,
    torsion_residual,
)
from kasnerlab.grids import LOCALIZED, LogTimeGrid, SpatialGrid
from kasnerlab.iteration import zeroth_iterate

from oracles import (
    coframe_matrix_reference,
    covariant_gamma_oracle,
    gamma_reference,
    kasner_symbolic_ricci,
    metric_from_coframe,
    momentum_coordinate_oracle,
    ricci_coordinate_oracle,
    second_fundamental_from_frame,
    spacetime_ricci_reference,
    spatial_ricci_reference,
    unpack_slots,
)

DELTA = 2.0 * np.pi
# gamma and the spatial Ricci sum in another order than their all-component
# reference formulas: allowed gap relative to max|reference| (measured <= 1.5e-15)
REORDER_TOL = 1e-14
# the scalar curvature's contracted identity against the trace of a Ricci
# route, relative to max|tr R| (measured <= 4.1e-15 at n = 8, 12 and 24,
# both modes, both families, every fourth node, with and without a bump)
TRACE_TOL = 1e-14


def assert_close_to_reference(got, want):
    assert np.max(np.abs(got - want)) <= REORDER_TOL * np.max(np.abs(want))


def smooth_frame(grid, amp=0.2):
    """Well-conditioned single-mode frame used across the dual-route tests."""
    x1, x2, x3 = grid.mesh(1), grid.mesh(2), grid.mesh(3)
    e = np.zeros((3, 3) + grid.shape)
    for i in range(3):
        e[i, i] = 1.0 + amp * np.sin(x1 + i) * np.cos(x2 - i)
    e[0, 1] = amp * np.sin(x2 + 0.5) * np.cos(x3)
    e[1, 2] = amp * np.cos(x1) * np.sin(x3 + 1.0)
    e[2, 0] = amp * np.sin(x1 + x3)
    return e


def smooth_symmetric(grid, amp=0.3):
    x1, x2, x3 = grid.mesh(1), grid.mesh(2), grid.mesh(3)
    k = np.zeros((3, 3) + grid.shape)
    for i in range(3):
        for j in range(i, 3):
            k[i, j] = k[j, i] = amp * np.sin(x1 + i) * np.cos(x2 + j) + 0.1 * np.cos(x3 + i * j)
    return k


def kasner_state(grid, t, u0=2.0):
    """Exact homogeneous vacuum state at time t."""
    p = exponents_from_u(grid, float(u0))
    pv = p.as_array()
    e = np.zeros((3, 3) + grid.shape)
    k = np.zeros((3, 3) + grid.shape)
    for i in range(3):
        e[i, i] = t ** (-pv[i])
        k[i, i] = -pv[i] / t
    return FrameState(grid, e, coframe_from_frame(e), k, np.zeros((3, 3) + grid.shape), t)


def _nan_at(a, index):
    """Copy of a with a NaN at index."""
    a = a.copy()
    a[index] = np.nan
    return a


def _inf_at(a, index):
    """Copy of a with an inf at index."""
    a = a.copy()
    a[index] = np.inf
    return a


def _dataset_with_nan_frame(grid, monkeypatch):
    data = random_dataset(grid, seed=0)
    frame = asymdata.frame_matrix_from_metric
    slot = asymdata.SLOTS.index((0, 1))
    monkeypatch.setattr(asymdata, "frame_matrix_from_metric", lambda c: _nan_at(frame(c), (slot, 2, 5, 1)))
    return asymdata.AsymptoticDataSet(data.p, data.c)


class TestCoframe:
    def test_diagonal_inverse(self):
        grid = SpatialGrid(DELTA, 8)
        t = 0.37
        p = (-2.0 / 7.0, 3.0 / 7.0, 6.0 / 7.0)
        e = np.zeros((3, 3) + grid.shape)
        for i in range(3):
            e[i, i] = t ** (-p[i])
        om = coframe_from_frame(e)
        for i in range(3):
            assert np.max(np.abs(om[i, i] - t ** p[i])) < 1e-15 * t ** p[i]
            for j in range(3):
                if j != i:
                    assert np.all(om[i, j] == 0.0)

    def test_random_frame_identity_product(self):
        grid = SpatialGrid(DELTA, 8)
        rng = np.random.default_rng(12)
        e = np.eye(3)[..., None, None, None] + 0.3 * rng.normal(size=(3, 3) + grid.shape)
        om = coframe_from_frame(e)
        prod = np.einsum("ia...,ac...->ic...", e, om)
        eye = np.zeros_like(prod)
        eye[0, 0] = eye[1, 1] = eye[2, 2] = 1.0
        assert np.max(np.abs(prod - eye)) < 1e-12
        # cross-check against the library inverse
        ref = np.moveaxis(np.linalg.inv(np.moveaxis(e, (0, 1), (-2, -1))), (-2, -1), (0, 1))
        assert np.max(np.abs(om - ref)) < 1e-12

    def test_zeroth_iterate_coframe_closed_form(self):
        # upper-triangular f with exponent weights: the coframe must be the
        # closed-form inverse h with the opposite weights, entrywise
        grid = SpatialGrid(DELTA, 12)
        ds = u_wave_dataset(grid)
        pv = ds.p.as_array()
        t = 0.7
        f = unpack_slots(asymdata.frame_matrix_from_metric(ds.c), symmetric=False)
        e0 = f * t ** (-pv[:, None])
        om0 = coframe_matrix_reference(f) * t ** pv[None, :]
        om = coframe_from_frame(e0)
        assert np.max(np.abs(om - om0)) < 1e-12 * np.max(np.abs(om0))

    def test_singular_point_reported(self):
        grid = SpatialGrid(DELTA, 8)
        e = smooth_frame(grid, amp=0.1)
        e[:, :, 2, 5, 1] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 1.5]]
        with pytest.raises(SingularFrameError) as err:
            coframe_from_frame(e)
        assert "(2, 5, 1)" in str(err.value)

    def test_determinant_check_shared_with_the_inverse(self):
        grid = SpatialGrid(DELTA, 8)
        e = smooth_frame(grid, amp=0.1)
        e[:, :, 2, 5, 1] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 1.5]]
        with pytest.raises(SingularFrameError) as inverse:
            coframe_from_frame(e)
        with pytest.raises(SingularFrameError) as determinant:
            frame_determinant(e)
        assert str(determinant.value) == str(inverse.value)
        assert "at grid point (2, 5, 1)" in str(determinant.value)


class TestMetricFromCoframe:
    def test_diagonal_kasner(self):
        grid = SpatialGrid(DELTA, 8)
        t = 0.25
        p = (-2.0 / 7.0, 3.0 / 7.0, 6.0 / 7.0)
        om = np.zeros((3, 3) + grid.shape)
        for i in range(3):
            om[i, i] = t ** p[i]
        g = metric_from_coframe(om)
        for i in range(3):
            assert np.max(np.abs(g[i, i] - t ** (2 * p[i]))) < 1e-15 * t ** (2 * p[i])

    def test_bitwise_symmetric(self):
        grid = SpatialGrid(DELTA, 8)
        rng = np.random.default_rng(3)
        om = np.eye(3)[..., None, None, None] + 0.4 * rng.normal(size=(3, 3) + grid.shape)
        g = metric_from_coframe(om)
        assert np.array_equal(g, np.swapaxes(g, 0, 1))

    def test_degenerate_coframe_rejected(self):
        grid = SpatialGrid(DELTA, 8)
        om = np.zeros((3, 3) + grid.shape)
        om[0, 0] = om[1, 0] = om[2, 0] = 1.0  # rank 1 everywhere
        with pytest.raises(ConfigError):
            metric_from_coframe(om)


class TestGammaFromFrame:
    def test_constant_frame_gives_zero(self):
        grid = SpatialGrid(DELTA, 8)
        e = np.zeros((3, 3) + grid.shape)
        e[0, 0], e[1, 1], e[2, 2] = 0.5, 2.0, 1.5
        e[0, 1] = 0.3
        gam = gamma_from_frame(e, coframe_from_frame(e), grid)
        assert np.all(gam == 0.0)

    def test_exact_antisymmetry(self):
        grid = SpatialGrid(DELTA, 16)
        e = smooth_frame(grid)
        gam = _unpack_gamma(gamma_from_frame(e, coframe_from_frame(e), grid))
        assert np.array_equal(gam, -np.swapaxes(gam, 1, 2))
        diagonal = gam[:, range(3), range(3)]
        assert np.all(diagonal == 0.0) and not np.any(np.signbit(diagonal))

    def test_against_koszul_oracle(self):
        # [measured] gap 5.6e-4 at n=24, 4th order (2.5e-3 at 16, 1.9e-4 at 32)
        grid = SpatialGrid(DELTA, 24)
        e = smooth_frame(grid)
        om = coframe_from_frame(e)
        gam = _unpack_gamma(gamma_from_frame(e, om, grid))
        gap = np.max(np.abs(gam - covariant_gamma_oracle(e, om, grid)))
        assert gap < 1.5e-3

    def test_koszul_gap_refines_at_4th_order(self):
        gaps = {}
        for n in (16, 32):
            grid = SpatialGrid(DELTA, n)
            e = smooth_frame(grid)
            om = coframe_from_frame(e)
            gam = _unpack_gamma(gamma_from_frame(e, om, grid))
            gaps[n] = np.max(np.abs(gam - covariant_gamma_oracle(e, om, grid)))
        assert gaps[16] / gaps[32] > 10.0

    @pytest.mark.parametrize("mode", ["periodic", "localized"])
    def test_matches_commutator_reference(self, mode):
        grid = SpatialGrid(DELTA, 12, mode)
        # rows of a zeroth-iterate frame at t = 1e-4 differ in size by t^-p
        random_e = zeroth_iterate(random_dataset(grid, seed=5), LogTimeGrid(1e-4, 1e-1, 41)).e[0]
        for e in (smooth_frame(grid), random_e):
            om = coframe_from_frame(e)
            got = _unpack_gamma(gamma_from_frame(e, om, grid))
            assert_close_to_reference(got, gamma_reference(e, om, grid))

    def test_torsion_closure(self):
        # construction cancels the commutator; only rounding survives
        grid = SpatialGrid(DELTA, 16)
        e = smooth_frame(grid)
        om = coframe_from_frame(e)
        gam = gamma_from_frame(e, om, grid)
        st = FrameState(grid, e, om, smooth_symmetric(grid), gam, 1.0)
        c = torsion_residual(st).values
        assert np.max(np.abs(c)) < 1e-13

    def test_torsion_sees_non_levi_civita_gamma(self):
        # a bump b in gamma[0, 1, 2] (and so -b in gamma[0, 2, 1]) moves
        # C[0, 1, 2] by -b and C[0, 2, 1] by +b; the packed torsion c[p, B]
        # holds them at p = (0, 1), B = 2 and p = (0, 2), B = 1
        grid = SpatialGrid(DELTA, 16)
        e = smooth_frame(grid)
        om = coframe_from_frame(e)
        gam = gamma_from_frame(e, om, grid)
        b = 1e-3 * np.sin(grid.mesh(1) + grid.mesh(3))
        bump = np.zeros_like(gam)
        bump[0, 2] = b  # the packed slot gamma[0, 1, 2]
        st = FrameState(grid, e, om, smooth_symmetric(grid), gam + bump, 1.0)
        c = torsion_residual(st).values
        moved = np.zeros_like(c)
        moved[0, 2] = -b
        moved[1, 1] = b
        # the rounding bound of test_torsion_closure
        assert np.max(np.abs(c - moved)) < 1e-13


class TestSpatialRicci:
    def test_homogeneous_slice_is_flat(self):
        grid = SpatialGrid(DELTA, 8)
        st = kasner_state(grid, 0.4)
        r = spatial_ricci(st.e, st.gamma, grid)
        assert np.all(r == 0.0)

    @pytest.mark.parametrize("mode", ["periodic", "localized"])
    def test_matches_all_component_reference(self, mode):
        grid = SpatialGrid(DELTA, 16, mode)
        e = smooth_frame(grid)
        om = coframe_from_frame(e)
        gam = gamma_from_frame(e, om, grid)
        # a non-Levi-Civita connection: a bump in the packed slot gamma[0, 1, 2]
        bump = np.zeros_like(gam)
        bump[0, 2] = 1e-3 * np.sin(grid.mesh(1) + grid.mesh(3))
        for g in (gam, gam + bump):
            got = spatial_ricci(e, g, grid)
            assert_close_to_reference(got, spatial_ricci_reference(e, _unpack_gamma(g), grid))

    def test_against_coordinate_oracle(self):
        # [measured] gap 3.2e-3 at n=24, 4th order (1.2e-2 at 16, 1.0e-3 at 32)
        grid = SpatialGrid(DELTA, 24)
        e = smooth_frame(grid)
        om = coframe_from_frame(e)
        gam = gamma_from_frame(e, om, grid)
        r_frame = spatial_ricci(e, gam, grid)
        r_coord = ricci_coordinate_oracle(metric_from_coframe(om), grid)
        r_pull = np.einsum("ia...,jb...,ab...->ij...", e, e, r_coord)
        assert np.max(np.abs(r_frame - r_pull)) < 8e-3

    def test_coordinate_gap_refines_at_4th_order(self):
        gaps = {}
        for n in (16, 32):
            grid = SpatialGrid(DELTA, n)
            e = smooth_frame(grid)
            om = coframe_from_frame(e)
            gam = gamma_from_frame(e, om, grid)
            r_frame = spatial_ricci(e, gam, grid)
            r_coord = ricci_coordinate_oracle(metric_from_coframe(om), grid)
            gaps[n] = np.max(np.abs(r_frame - np.einsum("ia...,jb...,ab...->ij...", e, e, r_coord)))
        assert gaps[16] / gaps[32] > 10.0

    def test_levi_civita_ricci_nearly_symmetric(self):
        # [measured] asymmetry 3.9e-4 at n=24: pure FD truncation
        grid = SpatialGrid(DELTA, 24)
        e = smooth_frame(grid)
        om = coframe_from_frame(e)
        r = spatial_ricci(e, gamma_from_frame(e, om, grid), grid)
        assert np.max(np.abs(r - np.swapaxes(r, 0, 1))) < 1.5e-3
        assert np.max(np.abs(r)) > 0.1  # the field itself is far from zero

    def test_curved_product_metric_profile(self):
        # one curved direction: c11 = 1 + 0.2 sin(2 pi x2 / delta), frozen t
        grid = SpatialGrid(DELTA, 24)
        x2 = grid.mesh(2)
        e = np.zeros((3, 3) + grid.shape)
        e[0, 0] = (1.0 + 0.2 * np.sin(x2)) ** (-0.5)
        e[1, 1] = 1.0
        e[2, 2] = 1.0
        om = coframe_from_frame(e)
        gam = gamma_from_frame(e, om, grid)
        r_frame = spatial_ricci(e, gam, grid)
        r_coord = ricci_coordinate_oracle(metric_from_coframe(om), grid)
        r_pull = np.einsum("ia...,jb...,ab...->ij...", e, e, r_coord)
        assert np.max(np.abs(r_frame - r_pull)) < 5e-4
        assert np.max(np.abs(r_frame)) > 0.01


class TestScalarCurvature:
    """_scalar_curvature against two Ricci routes: the trace of spatial_ricci
    (9 packed slots differentiated) and of the 27-slot reference."""

    @pytest.mark.parametrize("n", [12, 24])
    @pytest.mark.parametrize("mode", ["periodic", LOCALIZED])
    @pytest.mark.parametrize(
        "family", [lambda grid: random_dataset(grid, seed=0), u_wave_dataset], ids=["random", "u_wave"]
    )
    def test_equals_the_trace_of_both_ricci_routes(self, n, mode, family):
        grid = SpatialGrid(DELTA, n, mode)
        level = zeroth_iterate(family(grid), LogTimeGrid(1e-4, 1e-1, 41))
        # TestSpatialRicci's non-Levi-Civita bump in the packed slot gamma[0, 1, 2]
        bump = np.zeros((3, 3) + grid.shape)
        bump[0, 2] = 1e-3 * np.sin(grid.mesh(1) + grid.mesh(3))
        for r in (0, 20, 40):
            e = level.e[r]
            gam = gamma_from_frame(e, coframe_from_frame(e), grid)
            for g in (gam, gam + bump):
                got = _scalar_curvature(e, g, grid)
                for ricci in (spatial_ricci(e, g, grid), spatial_ricci_reference(e, _unpack_gamma(g), grid)):
                    want = np.einsum("ii...->...", ricci)
                    assert np.max(np.abs(got - want)) <= TRACE_TOL * np.max(np.abs(want))


class TestSecondFundamental:
    def test_kasner_matches_minus_p_over_t(self):
        # [measured] rel err 4.9e-5 at 17 log-uniform nodes per decade
        grid = SpatialGrid(DELTA, 8)
        t_nodes = np.exp(np.linspace(np.log(0.1), np.log(1.0), 17))
        states = [kasner_state(grid, t) for t in t_nodes]
        kt = second_fundamental_from_frame(
            np.stack([s.e for s in states]), np.stack([s.omega for s in states]), t_nodes
        )
        exact = np.stack([s.k for s in states])
        scaled = np.abs(kt - exact) * t_nodes[:, None, None, None, None, None]
        assert np.max(scaled) < 2e-4

    def test_kasner_time_fd_refines(self):
        grid = SpatialGrid(DELTA, 8)
        errs = {}
        for m in (9, 17):
            t_nodes = np.exp(np.linspace(np.log(0.1), np.log(1.0), m))
            states = [kasner_state(grid, t) for t in t_nodes]
            kt = second_fundamental_from_frame(
                np.stack([s.e for s in states]), np.stack([s.omega for s in states]), t_nodes
            )
            exact = np.stack([s.k for s in states])
            errs[m] = np.max(np.abs(kt - exact) * t_nodes[:, None, None, None, None, None])
        assert errs[9] / errs[17] > 8.0

    @pytest.mark.parametrize(
        "t_nodes,text",
        [
            ([0.5] * 5, "time spacing is zero"),
            ([0.1, 0.2, 0.3, 0.4, 0.5], "t_nodes must be uniform in log t"),
            ([-0.1, 0.2, 0.3, 0.4, 0.5], "slice times must be positive"),
        ],
        ids=["repeated", "uniform-in-t", "negative"],
    )
    def test_bad_time_nodes_rejected(self, t_nodes, text):
        grid = SpatialGrid(DELTA, 8)
        st = kasner_state(grid, 0.5)
        e_s = np.stack([st.e] * 5)
        om_s = np.stack([st.omega] * 5)
        with pytest.raises(ConfigError, match=f"^{text}$"):
            second_fundamental_from_frame(e_s, om_s, np.array(t_nodes))


class TestFrameState:
    def test_from_frame_builds_consistent_state(self):
        grid = SpatialGrid(DELTA, 16)
        st = FrameState.from_frame(grid, smooth_frame(grid), smooth_symmetric(grid), 0.8)
        prod = np.einsum("ia...,ac...->ic...", st.e, st.omega)
        prod[0, 0] -= 1.0
        prod[1, 1] -= 1.0
        prod[2, 2] -= 1.0
        assert np.max(np.abs(prod)) <= 1e-10

    def test_validation_catches_broken_inverse(self):
        grid = SpatialGrid(DELTA, 8)
        st = kasner_state(grid, 0.5)
        with pytest.raises(ConfigError, match=r"^e\*omega deviates from identity by "):
            FrameState(grid, st.e, st.omega + 1e-6, st.k, st.gamma, st.t)

    def test_validation_catches_asymmetric_k(self):
        grid = SpatialGrid(DELTA, 8)
        st = kasner_state(grid, 0.5)
        k = st.k.copy()
        k[0, 1] += 1e-3
        with pytest.raises(ConfigError, match=r"^k is not symmetric \(deviation "):
            FrameState(grid, st.e, st.omega, k, st.gamma, st.t)

    def test_validation_rejects_a_27_slot_gamma(self):
        # the packed gamma holds only the 9 slots J < B, so no layout that
        # could break the (J, B) antisymmetry is accepted
        grid = SpatialGrid(DELTA, 8)
        st = kasner_state(grid, 0.5)
        full = _unpack_gamma(st.gamma)
        want = r"^gamma has shape \(3, 3, 3, 8, 8, 8\), expected \(3, 3, 8, 8, 8\)$"
        with pytest.raises(ConfigError, match=want):
            FrameState(grid, st.e, st.omega, st.k, full, st.t)

    def test_validation_rejects_nonpositive_time(self):
        grid = SpatialGrid(DELTA, 8)
        st = kasner_state(grid, 0.5)
        with pytest.raises(ConfigError):
            FrameState(grid, st.e, st.omega, st.k, st.gamma, 0.0)

    @pytest.mark.parametrize("t", [np.inf, np.nan], ids=["inf", "nan"])
    def test_validation_rejects_nonfinite_time(self, t):
        st = kasner_state(SpatialGrid(DELTA, 8), 0.5)
        with pytest.raises(ConfigError, match=f"^slice time must be finite, got {t}$"):
            FrameState(st.grid, st.e, st.omega, st.k, st.gamma, t)


    @pytest.mark.parametrize(
        "build, error, text",
        [
            (
                lambda st, mp: FrameState(st.grid, _nan_at(st.e, (0, 1, 2, 5, 1)), st.omega, st.k, st.gamma, st.t),
                ConfigError,
                r"^e has a non-finite value at index \(0, 1, 2, 5, 1\)$",
            ),
            (
                lambda st, mp: FrameState(st.grid, st.e, st.omega, _nan_at(st.k, (0, 1, 2, 5, 1)), st.gamma, st.t),
                ConfigError,
                r"^k has a non-finite value at index \(0, 1, 2, 5, 1\)$",
            ),
            (
                lambda st, mp: FrameState(st.grid, st.e, _nan_at(st.omega, (1, 2, 2, 5, 1)), st.k, st.gamma, st.t),
                ConfigError,
                r"^omega has a non-finite value at index \(1, 2, 2, 5, 1\)$",
            ),
            (
                lambda st, mp: FrameState(st.grid, _inf_at(st.e, (2, 2, 0, 3, 7)), st.omega, st.k, st.gamma, st.t),
                ConfigError,
                r"^e has a non-finite value at index \(2, 2, 0, 3, 7\)$",
            ),
            (
                lambda st, mp: FrameState(st.grid, st.e, _inf_at(st.omega, (0, 0, 4, 4, 4)), st.k, st.gamma, st.t),
                ConfigError,
                r"^omega has a non-finite value at index \(0, 0, 4, 4, 4\)$",
            ),
            (
                lambda st, mp: FrameState(st.grid, st.e, st.omega, _inf_at(st.k, (0, 1, 2, 5, 1)), st.gamma, st.t),
                ConfigError,
                r"^k has a non-finite value at index \(0, 1, 2, 5, 1\)$",
            ),
            (
                lambda st, mp: FrameState(st.grid, st.e, st.omega, st.k, _inf_at(st.gamma, (2, 0, 1, 1, 1)), st.t),
                ConfigError,
                r"^gamma has a non-finite value at index \(2, 0, 1, 1, 1\)$",
            ),
            (
                lambda st, mp: FrameState(st.grid, st.e, st.omega, st.k, _nan_at(st.gamma, (0, 1, 2, 5, 1)), st.t),
                ConfigError,
                r"^gamma has a non-finite value at index \(0, 1, 2, 5, 1\)$",
            ),
            (
                lambda st, mp: frame_determinant(_nan_at(st.e, (0, 1, 2, 5, 1))),
                SingularFrameError,
                r"^frame determinant nan below floor nan at grid point \(2, 5, 1\)$",
            ),
            (
                lambda st, mp: _dataset_with_nan_frame(st.grid, mp),
                ConfigError,
                r"^metric/frame round trip failed: max error nan vs scale",
            ),
        ],
        ids=[
            "e-nan",
            "k-nan",
            "omega-nan",
            "e-inf",
            "omega-inf",
            "k-inf",
            "gamma-inf",
            "gamma-finiteness",
            "determinant",
            "round-trip",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_a_nan_fails_each_check(self, build, error, text, monkeypatch):
        # a NaN compares false with every bound, so each check passes only a
        # deviation that is <= its bound; FrameState names a non-finite e,
        # omega, k or gamma before its identity and symmetry checks read
        # it, with no numpy warning on the way
        st = kasner_state(SpatialGrid(DELTA, 8), 0.5)
        with pytest.raises(error, match=text):
            build(st, monkeypatch)


class TestDerivativeCount:
    def test_one_fd_diff_call_per_axis(self, monkeypatch):
        # gamma differentiates e, Ricci the packed gamma's 9 slots (the trace
        # term reuses them), the momentum residual k (tr k reuses it) and the
        # Hamiltonian the 3 components of v, never the whole Ricci
        grid = SpatialGrid(DELTA, 8)
        e = smooth_frame(grid)
        om = coframe_from_frame(e)
        st = FrameState(grid, e, om, smooth_symmetric(grid), gamma_from_frame(e, om, grid), 1.0)
        kernels = {
            "gamma_from_frame": lambda: gamma_from_frame(e, om, grid),
            "spatial_ricci": lambda: spatial_ricci(e, st.gamma, grid),
            "momentum_residual_evolved": lambda: momentum_residual_evolved(st),
            "hamiltonian_residual": lambda: hamiltonian_residual(st),
        }
        fd_diff = geometry.fd_diff
        leading = []  # the shape ahead of the grid axes of each differentiated field
        monkeypatch.setattr(geometry, "fd_diff", lambda *args: leading.append(args[0].shape[:-3]) or fd_diff(*args))
        shapes = {}
        for name, kernel in kernels.items():
            leading.clear()
            kernel()
            shapes[name] = list(leading)
        assert shapes == {
            "gamma_from_frame": [(3, 3)] * 3,
            "spatial_ricci": [(3, 3)] * 3,
            "momentum_residual_evolved": [(3, 3)] * 3,
            "hamiltonian_residual": [(3,)] * 3,
        }


class TestConstraintResiduals:
    def test_homogeneous_hamiltonian_at_rounding(self):
        grid = SpatialGrid(DELTA, 8)
        st = kasner_state(grid, 0.3)
        assert np.max(np.abs(hamiltonian_residual(st).values)) < 1e-13

    def test_homogeneous_momentum_exactly_zero(self):
        grid = SpatialGrid(DELTA, 8)
        st = kasner_state(grid, 0.3)
        res = momentum_residual_evolved(st)
        assert res.values.shape == (3,) + grid.shape
        assert np.all(res.values == 0.0)

    def test_broken_sum_rule_shows_up_in_hamiltonian(self):
        # k = -diag(p)/t with sum p_i^2 != 1 leaves |k|^2 - (tr k)^2 != 0
        grid = SpatialGrid(DELTA, 8)
        st = kasner_state(grid, 0.3)
        k = st.k.copy()
        k[2, 2] *= 1.05
        st_bad = FrameState(grid, st.e, st.omega, k, st.gamma, st.t)
        assert np.max(np.abs(hamiltonian_residual(st_bad).values)) > 0.1

    def test_momentum_against_coordinate_oracle(self):
        # [measured] gap 8.4e-4 at n=24, 4th order (3.8e-3 at 16, 2.7e-4 at 32)
        grid = SpatialGrid(DELTA, 24)
        e = smooth_frame(grid)
        om = coframe_from_frame(e)
        gam = gamma_from_frame(e, om, grid)
        k = smooth_symmetric(grid)
        st = FrameState(grid, e, om, k, gam, 1.0)
        mom_f = momentum_residual_evolved(st).values
        mom_c = momentum_coordinate_oracle(metric_from_coframe(om), k, e, om, grid)
        assert np.max(np.abs(mom_f - mom_c)) < 2.5e-3
        assert np.max(np.abs(mom_f)) > 0.1

    def test_momentum_oracle_gap_refines(self):
        gaps = {}
        for n in (16, 32):
            grid = SpatialGrid(DELTA, n)
            e = smooth_frame(grid)
            om = coframe_from_frame(e)
            gam = gamma_from_frame(e, om, grid)
            k = smooth_symmetric(grid)
            st = FrameState(grid, e, om, k, gam, 1.0)
            gaps[n] = np.max(
                np.abs(
                    momentum_residual_evolved(st).values
                    - momentum_coordinate_oracle(metric_from_coframe(om), k, e, om, grid)
                )
            )
        assert gaps[16] / gaps[32] > 10.0


class TestSpacetimeRicci:
    def test_symbolic_vacuum_oracle(self):
        # exact-rational Kasner exponents annihilate the symbolic 4-Ricci;
        # a sum-one but not sum-of-squares-one triple does not
        ric, p, t = kasner_symbolic_ricci()
        vacuum = {p[0]: sp.Rational(-2, 7), p[1]: sp.Rational(3, 7), p[2]: sp.Rational(6, 7)}
        for i in range(4):
            for j in range(4):
                assert sp.simplify(ric[i, j].subs(vacuum)) == 0
        broken = {p[0]: sp.Rational(3, 10), p[1]: sp.Rational(3, 10), p[2]: sp.Rational(4, 10)}
        assert sp.simplify(ric[0, 0].subs(broken)) != 0

    def test_homogeneous_vacuum_residual_small(self):
        # [measured] sup of t^2 * R4 is 1.2e-3 over 17 nodes (one-sided ends),
        # 1.0e-4 on interior nodes
        grid = SpatialGrid(DELTA, 8)
        t_nodes = np.exp(np.linspace(np.log(0.1), np.log(1.0), 17))
        states = [kasner_state(grid, t) for t in t_nodes]
        r4 = spacetime_ricci(states)
        scaled = r4.sup_norms() * t_nodes**2
        assert np.max(scaled) < 5e-3
        assert np.max(scaled[2:-2]) < 5e-4

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_requires_five_slices(self, m):
        grid = SpatialGrid(DELTA, 8)
        states = [kasner_state(grid, t) for t in np.exp(np.linspace(np.log(0.2), np.log(0.6), m))]
        with pytest.raises(ConfigError, match=f"^need at least 5 consecutive slices, got {m}$"):
            spacetime_ricci(states)

    @pytest.mark.parametrize(
        "other",
        [SpatialGrid(np.pi, 8), SpatialGrid(DELTA, 8, "localized"), SpatialGrid(DELTA, 9)],
        ids=["delta", "mode", "shape"],
    )
    def test_rejects_slices_on_another_grid(self, other):
        # slice 2 is differentiated on its own grid or not at all: the same
        # shape with another spacing or mode would be read with slice 0's
        grid = SpatialGrid(DELTA, 8)
        t_nodes = np.exp(np.linspace(np.log(0.2), np.log(0.6), 5))
        states = [kasner_state(grid, t) for t in t_nodes]
        states[2] = kasner_state(other, t_nodes[2])
        text = re.escape(f"slice 2 is on {other!r}, not on slice 0's {grid!r}")
        with pytest.raises(ConfigError, match=f"^{text}$"):
            spacetime_ricci(states)

    def test_r4_00_is_the_hamiltonian_minus_the_spatial_trace(self):
        # tr d_t kt - |kt|^2 is (R - |kt|^2 + (tr kt)^2) - tr r4_ij with the
        # spatial Ricci and (tr kt)^2 terms cancelled algebraically (measured
        # 8.9e-14 relative per node)
        grid = SpatialGrid(DELTA, 12)
        times = LogTimeGrid(1e-4, 1e-1, 9)
        level = zeroth_iterate(u_wave_dataset(grid), times)
        states = [FrameState.from_frame(grid, level.e[r], level.k[r], t) for r, t in enumerate(times.times)]
        r4 = spacetime_ricci(states)
        for r, st in enumerate(states):
            kt = r4.k_tilde[r]
            trkt = np.einsum("ii...->...", kt)
            ricci = spatial_ricci(st.e, st.gamma, grid)
            ham = np.einsum("ii...->...", ricci) - np.einsum("ij...,ij...->...", kt, kt) + trkt**2
            want = ham - np.einsum("ii...->...", r4.r4_ij[r])
            assert np.max(np.abs(r4.r4_00[r] - want)) <= 1e-10 * np.max(np.abs(want))

    # 5 slices: the fewest the time stencil takes, so its face rows meet;
    # 6: the first series with more than one centered row
    @pytest.mark.parametrize("m", [5, 6, 41])
    def test_matches_whole_series_formulas_bitwise(self, m):
        grid = SpatialGrid(DELTA, 8)
        level = zeroth_iterate(random_dataset(grid, seed=0), LogTimeGrid(1e-4, 1e-1, m))
        t = level.times.times
        states = [FrameState.from_frame(grid, level.e[r], level.k[r], t[r]) for r in range(t.size)]
        r4 = spacetime_ricci(states)
        got = (r4.r4_ij, r4.r4_00, r4.r4_0i, r4.k_tilde)
        for field, want in zip(got, spacetime_ricci_reference(states)):
            assert field.tobytes() == want.tobytes()

    def test_working_memory_is_three_series(self):
        # beyond its inputs, the first time derivative holds the stacked
        # frame series, the stencil's output (which becomes k_tilde) and the
        # stencil's one shift-difference temporary: three series.  The
        # outputs (k_tilde, r4_ij in the d_t k_tilde buffer, r4_00, r4_0i)
        # are 2.44 series; the whole-series formulas peak at 5.68
        grid = SpatialGrid(DELTA, 8)
        level = zeroth_iterate(random_dataset(grid, seed=0), LogTimeGrid(1e-4, 1e-1, 41))
        t = level.times.times
        states = [FrameState.from_frame(grid, level.e[r], level.k[r], t[r]) for r in range(t.size)]
        tracemalloc.start()
        try:
            spacetime_ricci(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * level.e.nbytes

    def test_component_shapes(self):
        grid = SpatialGrid(DELTA, 8)
        t_nodes = np.exp(np.linspace(np.log(0.2), np.log(0.6), 5))
        r4 = spacetime_ricci([kasner_state(grid, t) for t in t_nodes])
        assert r4.r4_ij.shape == (5, 3, 3) + grid.shape
        assert r4.r4_00.shape == (5,) + grid.shape
        assert r4.r4_0i.shape == (5, 3) + grid.shape
        assert r4.k_tilde.shape == (5, 3, 3) + grid.shape
        assert r4.sup_norms().shape == (5,)
