"""The pair runner's statistics: wins, quartile spread, the claim rule,
the no-regression verdict and setup_s's split into import and the rest;
what a pair entry keeps of a run, what a traced run keeps, and the host
line on platforms without sched_getaffinity or sysconf."""

import importlib.util
import json
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def pairs(parent, change, metric="peak_rss_mb"):
    return [{"parent": {metric: p}, "change": {metric: c}} for p, c in zip(parent, change)]


def test_wins_count_in_the_better_direction():
    run = pairs([10, 10, 10, 10], [9, 11, 10, 8])
    lower = bench_pairs.summarize(run, "peak_rss_mb", "lower")
    assert (lower["change_wins"], lower["change_losses"], lower["ties"]) == (2, 1, 1)
    higher = bench_pairs.summarize(run, "peak_rss_mb", "higher")
    assert (higher["change_wins"], higher["change_losses"], higher["ties"]) == (1, 2, 1)
    assert lower["median_rel_change"] == pytest.approx(-0.05)


@pytest.mark.parametrize(
    "change, met",
    [
        ([8.0] * 10, True),  # every pair won, medians 2.0 apart against a spread of 1.0
        ([8.0] * 9 + [12.0], True),  # nine in ten is enough
        ([8.0] * 8 + [12.0] * 2, False),  # eight in ten is not
        ([9.4] * 10, False),  # every pair won, but the medians are only 0.6 apart
    ],
)
def test_claim_needs_nine_in_ten_wins_beyond_the_parent_spread(change, met):
    parent = [9.5, 10.5] * 5  # quartiles 9.5 and 10.5: spread 1.0, median 10.0
    summary = bench_pairs.summarize(pairs(parent, change), "peak_rss_mb", "lower")
    assert summary["parent_iqr"] == pytest.approx(1.0)
    assert bench_pairs.claim_met(summary, 10, "lower") is met


@pytest.mark.parametrize(
    "parent, change, better, want",
    [
        ([9.5, 10.5] * 5, [10.4] * 10, "lower", "ok"),  # 4% worse, inside the 25% bound
        ([9.5, 10.5] * 5, [13.0] * 10, "lower", "worse"),  # 30% worse
        ([9.5, 10.5] * 5, [7.0] * 10, "higher", "worse"),  # 30% lower where higher is better
        ([7.0, 13.0] * 5, [10.0] * 10, "lower", "unresolved"),  # spread 6.0 against a median of 10.0
        ([7.0, 13.0] * 5, [6.0] * 10, "lower", "ok"),  # as wide, but every change run is better
        ([7.0, 13.0] * 5, [14.0] * 10, "higher", "ok"),
        ([7.0, 13.0] * 5, [12.6] * 10, "lower", "worse"),  # worse beyond the bound wins over spread
    ],
)
def test_verdict_against_the_bound(parent, change, better, want):
    summary = bench_pairs.summarize(pairs(parent, change), "peak_rss_mb", better)
    assert bench_pairs.verdict(summary, 0.25, better) == want


def test_side_keeps_the_runs_import_samples():
    result = {
        "metrics": {"wall_s": {"value": 3.1, "unit": "s"}, "setup_s": {"value": 0.12, "unit": "s"}},
        "attempted": 4,
        "failed": 0,
        "correct": True,
    }
    record = {"workload": "tower_uwave32", "import_s": [0.11, 0.1, 0.12, 0.1, 0.13], "reps": []}
    side = bench_pairs.side_entry(result, record)
    assert side == {
        "wall_s": 3.1,
        "setup_s": 0.12,
        "attempted": 4,
        "failed": 0,
        "correct": True,
        "import_s": [0.11, 0.1, 0.12, 0.1, 0.13],
    }


def test_setup_split_takes_each_runs_import_median_out_of_setup_s():
    def side(setup_s, import_s):
        return {"setup_s": setup_s, "import_s": import_s}

    run = [
        {"parent": side(0.13, [0.1, 0.12, 0.11]), "change": side(0.15, [0.12, 0.1, 0.13])},
        {"parent": side(0.12, [0.09, 0.1, 0.1]), "change": side(0.16, [0.14, 0.13, 0.12])},
        {"parent": side(0.14, [0.12, 0.11, 0.13]), "change": side(0.14, [0.1, 0.11, 0.11])},
    ]
    split = bench_pairs.setup_split(run)
    # run medians: parent 0.11, 0.10, 0.12; change 0.12, 0.13, 0.11
    assert split["parent"]["import_s"] == pytest.approx(0.11)
    assert split["change"]["import_s"] == pytest.approx(0.12)
    # beyond the import: parent 0.02 each; change 0.03, 0.03, 0.03
    assert split["parent"]["beyond_import_s"] == pytest.approx(0.02)
    assert split["change"]["beyond_import_s"] == pytest.approx(0.03)


def test_traced_side_runs_with_tracing_and_keeps_the_layer_metrics(monkeypatch):
    result = {
        "correct": True,
        "attempted": 5,
        "failed": 0,
        "metrics": {
            "geometry.spatial_ricci.calls": {"value": 41, "unit": "count"},
            "grids.fd_diff.mb_moved": {"value": 1305.9, "unit": "MB"},
        },
    }
    commands = []

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout="layer lines\n" + json.dumps(result) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    side = bench_pairs.traced_side("tree", "health_random24", 30)
    assert commands[0][1:] == [
        "kbench/run.py",
        *("--workload", "health_random24", "--seed", "0", "--seconds", "30", "--trace", "1"),
    ]
    assert side == {"geometry.spatial_ricci.calls": 41, "grids.fd_diff.mb_moved": 1305.9, "correct": True}


@pytest.mark.parametrize("missing", [("sched_getaffinity",), ("sched_getaffinity", "sysconf")])
@pytest.mark.parametrize("count, cores", [(5, "5 cores, "), (None, "1 cores, ")])
def test_host_counts_cores_without_sched_getaffinity(monkeypatch, missing, count, cores):
    # macOS and Windows have no sched_getaffinity, and Windows no sysconf
    for name in missing:
        monkeypatch.delattr(os, name, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    line = bench_pairs.host()
    assert line.startswith(cores)
    assert ("RAM unknown" in line) == ("sysconf" in missing)
