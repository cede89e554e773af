"""Run one kasnerlab benchmark workload and print its metrics.

    python3 kbench/run.py --workload tower_uwave32 --seed 0 --seconds 10 --trace 0

The run drives the library API from this checkout's src/ in one process,
closed loop with one client, with BLAS/OpenMP pinned to one thread and the
allocator pinned to reuse its heap (pin_allocator).  A repetition is set-up,
timed phase and correctness check.  The warm-up runs panel member 0 once,
checked but not timed; the timed repetitions follow for --seconds, cycling
through the workload's panel members, and in the untraced run each member
runs at least once.  Only health_random24 uses the seed; its panel members
differ only in their data, not in the work done.

--trace 0 reports the end-to-end metrics: median timed-phase wall time,
process peak RSS, set-up time (median import time over fresh interpreters
plus median input build) and the workload's scaled constraint residual, the
mean over the panel members' first timed repetitions.  --trace 1 spends
half the budget untraced and half, but at least two repetitions, with
tracer.py's spans installed, then runs one more traced repetition with
allocation tracing for the peak_mb metrics; the others are medians over the
repetitions without it.  The difference of the untraced and traced median
wall times is the tracing overhead.

The last stdout line is the JSON result.  A fuller record (seed, environment,
per-repetition times and check problems, tracing overhead and the output
digest of the warm-up repetition, which compare.py reads) goes to
kbench/results/<workload>-seed<seed>-trace<trace>.json.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
# fresh interpreters timed importing the library, next to the run's own import
IMPORT_SAMPLES = 4
_SC_LEVEL3_CACHE_SIZE = 194  # glibc
_M_TRIM_THRESHOLD, _M_MMAP_MAX = -1, -4  # glibc mallopt parameters
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"), ("resid_scaled", "1"))


def pin_allocator():
    """Make glibc malloc keep freed memory for reuse: no chunk gets its own
    mapping and the heap is never trimmed, so after the warm-up the timed
    repetitions allocate without page faults.  Unpinned, each large numpy
    temporary is a fresh mapping; its page faults took 20-25% of a
    repetition's time, and their cost swung by +-20% from one repetition to
    the next with the host's load.  Memory use still shows in peak_rss_mb.
    Returns whether both settings took effect."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # not glibc
        return False
    return mallopt(_M_MMAP_MAX, 0) == 1 and mallopt(_M_TRIM_THRESHOLD, 2**31 - 1) == 1


def import_workloads():
    """Import the workloads with the library from this checkout's src/."""
    sys.path[:0] = [SRC, HERE]
    t0 = time.perf_counter()
    import workloads

    elapsed = time.perf_counter() - t0
    import kasnerlab

    where = os.path.dirname(os.path.abspath(kasnerlab.__file__))
    if where != os.path.join(SRC, "kasnerlab"):
        raise ImportError(f"kasnerlab was imported from {where}, not from {SRC}")
    return workloads, elapsed


def time_import_in_fresh_interpreter():
    probe = (
        f"import sys, time; sys.path[:0] = {[SRC, HERE]!r}; t0 = time.perf_counter(); "
        "import workloads; print(time.perf_counter() - t0)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def repetition(wl, seed, member=0, tracer=None):
    """Set-up, timed phase and check of one repetition."""
    from workloads import largest_array_mb

    if tracer is not None:
        tracer.start()
    t0 = time.perf_counter()
    inputs = wl.setup(seed, member)
    t1, cpu1 = time.perf_counter(), os.times()
    try:
        out = wl.run(inputs)
        error = None
    except Exception:  # a raising timed phase is a failed repetition
        out, error = None, traceback.format_exc(limit=4)
    t2, cpu2 = time.perf_counter(), os.times()
    if tracer is not None:
        tracer.stop()
    result = {
        "setup_s": t1 - t0,
        "wall_s": t2 - t1,
        "user_s": cpu2.user - cpu1.user,
        "sys_s": cpu2.system - cpu1.system,
    }
    if error is not None:
        return dict(result, problems=[error])
    return dict(result, problems=wl.check(out), digest=wl.digest(out), largest_array_mb=largest_array_mb(out))


def measure(wl, seed, seconds, tracer=None, min_reps=1):
    """Repetitions, cycling through the panel members from member 0, for
    `seconds`: the next starts only if, lasting as long as the last one, it
    ends in time.  At least min_reps run."""
    reps = []
    start = time.perf_counter()
    t_end, last = start + seconds, 0.0
    while len(reps) < min_reps or start + last <= t_end:
        reps.append(repetition(wl, seed, len(reps) % wl.panel, tracer))
        now = time.perf_counter()
        start, last = now, now - start
    return reps


def l3_cache_mb():
    try:
        size = os.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, ValueError):
        return None
    return size / 2**20 if size > 0 else None


def environment(reps, allocator_pinned):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
        "allocator_pinned": allocator_pinned,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache_mb": l3_cache_mb(),
        "largest_array_mb": max((r.get("largest_array_mb", 0.0) for r in reps), default=0.0),
    }


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    allocator_pinned = pin_allocator()
    try:
        workloads, import_s = import_workloads()
    except ImportError as exc:
        print(f"kbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}

    if not args.trace:
        # before the heap grows: starting a process write-protects the
        # parent's pages, and the next repetition would fault on each again
        import_samples = [import_s] + [time_import_in_fresh_interpreter() for _ in range(IMPORT_SAMPLES)]
    # the warm-up grows the heap to its working size and pays its page faults
    warmup = [repetition(wl, args.seed)]
    if args.trace:
        untraced = measure(wl, args.seed, args.seconds / 2)
        import tracer as tracing

        tr = tracing.Tracer()
        tr.install()
        try:
            # two repetitions at least, so that call counts can be compared
            traced = measure(wl, args.seed, args.seconds / 2, tr, min_reps=2)
            tr.memory = True
            memory = repetition(wl, args.seed, tracer=tr)
        finally:
            tr.restore()
        timed = untraced + traced + [memory]
        *snaps, memory_snap = tr.snapshots
        metrics = {}
        for name, unit in tracing.METRICS:
            if name.endswith(".peak_mb"):
                value = memory_snap[name]
            else:
                value = statistics.median(s[name] for s in snaps)
            metrics[name] = {"value": value, "unit": unit}
        counts = [{k: v for k, v in s.items() if k.endswith(".calls")} for s in tr.snapshots]
        untraced_wall, traced_wall = median_of(untraced, "wall_s"), median_of(traced, "wall_s")
        record["tracing"] = {
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "overhead_s": traced_wall - untraced_wall,
            "traced_reps": len(traced),
            "memory_traced_wall_s": memory["wall_s"],
            "counts_repeat": all(c == counts[0] for c in counts),
        }
    else:
        timed = measure(wl, args.seed, args.seconds, min_reps=wl.panel)
        panel = [r for r in timed[: wl.panel] if not r["problems"]]
        values = {
            "wall_s": median_of(timed, "wall_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(import_samples) + median_of(timed, "setup_s"),
            "resid_scaled": statistics.fmean(r["digest"]["resid_scaled"] for r in panel) if panel else None,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        record["import_s"] = import_samples
        record["panel_resid_scaled"] = [r["digest"]["resid_scaled"] for r in panel]

    reps = warmup + timed
    failed = sum(1 for r in reps if r["problems"])
    record.update(
        attempted=len(reps),
        failed=failed,
        fail_frac=failed / len(reps),
        metrics=metrics,
        environment=environment(reps, allocator_pinned),
        reps=[{k: r[k] for k in ("setup_s", "wall_s", "user_s", "sys_s", "problems")} for r in reps],
        digest=reps[0].get("digest"),
    )
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for r in reps:
        for problem in r["problems"]:
            print(f"FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"fail_frac = {record['fail_frac']} ({failed} of {len(reps)})")
    print(f"record: {os.path.relpath(path, ROOT)}")
    if any(m["value"] is None for m in metrics.values()):
        print("kbench: no repetition produced a checked output", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
