"""Tests of the benchmark itself: span arithmetic, wrapper lifetime, and
correctness checks that can fail.  Workloads run at small n to stay fast."""

import json
import os

import numpy as np
import pytest

import compare
import run
import tracer
import workloads
from kasnerlab import asymdata, geometry, grids, iteration


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_child_spans():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf():
        clock.now += 0.25

    leaf_w = tr.wrap("grids.fd_time_diff", leaf)

    def middle():
        clock.now += 2.0
        leaf_w()

    middle_w = tr.wrap("asymdata.solve_c11", middle)

    def outer():
        clock.now += 1.0
        middle_w()
        middle_w()
        clock.now += 0.5

    outer_w = tr.wrap("asymdata.assemble_dataset", outer)
    tr.start()
    outer_w()
    tr.stop()
    m = tr.snapshots[-1]
    assert m["grids.fd_time_diff.calls"] == 2
    assert m["grids.fd_time_diff.self_s"] == 0.5
    assert m["asymdata.solve_c11.calls"] == 2
    assert m["asymdata.solve_c11.self_s"] == 4.0
    assert tr.stats["asymdata.solve_c11"]["s"] == 4.5
    assert m["asymdata.assemble_dataset.self_s"] == 1.5
    assert tr.stats["asymdata.assemble_dataset"]["s"] == 6.0
    # an uncalled function reports zero
    assert m["geometry.spatial_ricci.calls"] == 0


def _bindings():
    return {(m.__name__, k): v for m in tracer.package_modules() for k, v in vars(m).items()}


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    before = _bindings()
    original = grids.fd_diff
    tr = tracer.Tracer()
    tr.install()
    try:
        assert grids.fd_diff is not original
        assert geometry.fd_diff is grids.fd_diff
        assert asymdata.fd_diff is grids.fd_diff
        assert iteration.spatial_ricci is geometry.spatial_ricci
    finally:
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_repeat_and_reach_calls_through_other_modules():
    wl = workloads.TowerUWave(n=8)
    tr = tracer.Tracer()
    tr.install()
    try:
        for memory in (False, True):
            tr.memory = memory
            tr.start()
            wl.run(wl.setup(0, 0))
            tr.stop()
    finally:
        tr.restore()
    first, second = tr.snapshots
    counts = {k: v for k, v in first.items() if k.endswith(".calls")}
    assert counts == {k: second[k] for k in counts}
    # advance_k evaluates Ricci once per time node at each of the two levels
    assert first["geometry.spatial_ricci.calls"] == 2 * 41
    # allocation tracing runs only when asked for
    assert first["iteration.advance_k.peak_mb"] == 0
    assert second["iteration.advance_k.peak_mb"] > 0
    assert first["iteration.build_tower.level_mb"] == pytest.approx(3 * 3 * 41 * 9 * 8**3 * 8 / 1e6)


def _plant_nan(out):
    if isinstance(out, list):  # tower levels
        out[-1].k[5, 0, 0, 1, 2, 3] = np.nan
    elif "level" in out:
        out["level"].k[5, 0, 0, 1, 2, 3] = np.nan
    else:
        out["mom_uwave"][0][1, 2, 3] = np.nan


SMALL = [workloads.TowerUWave(n=8), workloads.HealthRandom(n=8), workloads.Transport(n=16)]


@pytest.mark.parametrize("wl", SMALL, ids=lambda w: w.name)
def test_check_passes_then_fails_on_a_planted_nan(wl):
    out = wl.run(wl.setup(3, 0))
    assert wl.check(out) == []
    assert np.isfinite(wl.digest(out)["resid_scaled"])
    _plant_nan(out)
    assert any("non-finite" in p for p in wl.check(out))


def test_transport_check_fails_on_a_seam_jump():
    wl = workloads.Transport(n=16)
    out = wl.run(wl.setup(0, 0))
    out["layered"].seam.kappa13_jump = 1e-300
    assert any("layered seam" in p for p in wl.check(out))


def test_benchmark_json_lists_the_traced_metrics():
    spec_path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_compare_reports_bit_exact_and_gates_relative_differences(tmp_path):
    digest = {"levels": [{"k_sup": [1.0, 2.0]}], "resid_scaled": 0.5}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"digest": digest}))
    new.write_text(json.dumps({"digest": digest}))
    assert compare.main([str(old), str(new)]) == 0
    digest["levels"][0]["k_sup"][1] = 2.0 * (1 + 1e-9)
    new.write_text(json.dumps({"digest": digest}))
    assert compare.main([str(old), str(new)]) == 1


def test_measure_runs_every_panel_member_in_turn():
    class Panel:
        panel = 3

        def __init__(self):
            self.members = []

        def setup(self, seed, member):
            self.members.append(member)

        def run(self, inputs):
            return np.zeros(1)

        def check(self, out):
            return []

        def digest(self, out):
            return {"resid_scaled": 0.0}

    wl = Panel()
    # no time budget: min_reps alone sets the count
    assert len(run.measure(wl, 0, 0.0, min_reps=4)) == 4
    assert wl.members == [0, 1, 2, 0]
