"""The pair runner's statistics: wins, quartile spread and the claim rule."""

import importlib.util
import os

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
