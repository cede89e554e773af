"""The phase-RSS tool runs each workload once at small n and reports a peak
RSS per phase that never falls, as a high-water mark must."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "phase_rss.py")
PHASES = ["import", "setup", "run", "check", "digest"]


@pytest.mark.parametrize("workload", ["transport_n96", "health_random24", "tower_uwave32"])
def test_reports_every_phase_at_small_n(workload):
    cmd = [sys.executable, TOOL, "--workload", workload, "--n", "8"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert (record["workload"], record["n"], record["problems"]) == (workload, 8, [])
    rss = record["peak_rss_mb"]
    assert list(rss) == PHASES
    values = [rss[phase] for phase in PHASES]
    assert values[0] > 0 and values == sorted(values)


def test_unknown_workload_is_refused():
    done = subprocess.run([sys.executable, TOOL, "--workload", "nope"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 2
    assert "invalid choice: 'nope'" in done.stderr
