"""Tests for the approximate-solution tower: the closed-form level 0, the
homogeneous fixed point, bit identity with the whole-series formulas, the
tower's working memory, and the decay-rate fit."""

import math
import tracemalloc

import numpy as np
import pytest

from kasnerlab.errors import ConfigError, NonIntegrableError
from kasnerlab.families import homogeneous_dataset, layered_dataset, random_dataset, u_wave_dataset
from kasnerlab.grids import LogTimeGrid, SpatialGrid
from kasnerlab.iteration import IterateSet, build_tower, fit_decay_rate, zeroth_iterate

from oracles import gamma_reference, spatial_ricci_reference, tower_reference, zeroth_series_reference

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
        for lv in levels[1:]:
            assert np.array_equal(lv.e, base.e)
            assert np.array_equal(lv.k, base.k)
            # levels >= 1 invert e where level 0 uses h t^p: equal to rounding
            # (measured 3e-16 relative)
            assert np.all(np.abs(lv.omega - base.omega) <= 1e-15 * np.abs(base.omega))
            assert lv.envelope_report[0]["fitted"] is None


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
            assert level.envelope_report[0]["fitted"] == slope

    def test_abort_inside_the_quadrature_keeps_its_text(self):
        # off-constraint random data abort in the level-1 k update; this pins
        # the error path, not whether the abort is right
        data = random_dataset(SpatialGrid(DELTA, 12), seed=3)
        with pytest.raises(NonIntegrableError) as want:
            tower_reference(data, time_grid(), 2)
        with pytest.raises(NonIntegrableError) as got:
            build_tower(data, time_grid(), 2)
        assert str(got.value) == str(want.value)


class TestTowerMatchesAllComponentGeometry:
    @pytest.mark.parametrize("family", [u_wave_dataset, layered_dataset])
    def test_levels_within_rounding(self, family, monkeypatch):
        # the geometry kernel sums in another order than the all-component
        # formulas; through two levels of quadrature the gap stays at rounding
        # (measured 8.5e-14 in the u-wave level-2 e)
        data = family(SpatialGrid(DELTA, 8))
        levels = build_tower(data, time_grid(), 2)

        def all_component_ricci_at(self, index, order=4):
            e, omega = self.e[index], self.omega[index]
            gamma = gamma_reference(e, omega, self.grid, order)
            return spatial_ricci_reference(e, gamma, self.grid, order)

        monkeypatch.setattr(IterateSet, "ricci_at", all_component_ricci_at)
        reference = build_tower(data, time_grid(), 2)
        for level, want in zip(levels[1:], reference[1:]):
            for field in ("e", "omega", "k"):
                got, ref = getattr(level, field), getattr(want, field)
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestTowerMemory:
    def test_working_memory_beyond_the_returned_series(self):
        # the level updates hold an integrand and a quadrature output, one of
        # which becomes the returned series; everything else is one-node slabs
        # or 1/3-size integrating factors
        data = u_wave_dataset(SpatialGrid(DELTA, 8))
        tracemalloc.start()
        try:
            levels = build_tower(data, time_grid(), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for lv in levels for a in (lv.e, lv.omega, lv.k))
        assert peak - returned <= 1.5 * levels[0].e.nbytes


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

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_norms_rejected(self, bad):
        t = np.logspace(-4, -1, 10)
        norms = t**-0.5
        norms[3] = bad
        with pytest.raises(ConfigError, match="strictly positive"):
            fit_decay_rate(t, norms)
