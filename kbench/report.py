"""Run every workload, each run in a fresh process, and print each metric by
name and unit with the fraction of failed repetitions.

    python3 kbench/report.py                      # one run per workload, seed 0
    python3 kbench/report.py --seeds 0 1 2 3 4    # median and spread over seeds
    python3 kbench/report.py --trace 1            # per-layer metrics and overhead

With several seeds each metric shows its median and its spread, the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if trace:
        with open(os.path.join(HERE, "results", f"{workload}-seed{seed}-trace1.json")) as fh:
            result["tracing"] = json.load(fh)["tracing"]
    return result


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for wl in (w["name"] for w in spec["workloads"]):
        results = [run_once(wl, seed, spec["run_seconds"], args.trace) for seed in args.seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"== {wl}  seeds {args.seeds}  fail_frac = {failed / attempted} "
              f"({failed} of {attempted} repetitions)")
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            line = f"  {name:42s} {med:<14.6g} {m['unit']}"
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                line += f"   spread {spread:.4f}   runs {' '.join(f'{v:.6g}' for v in values)}"
            print(line)
        for seed, r in zip(args.seeds, results):
            if "tracing" in r:
                t = r["tracing"]
                print(
                    f"  seed {seed}: tracing overhead {t['overhead_s']:.3f} s "
                    f"({t['traced_wall_s']:.3f} traced - {t['untraced_wall_s']:.3f} untraced), "
                    f"call counts repeat: {t['counts_repeat']}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
