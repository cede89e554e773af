"""Peak RSS of one benchmark repetition after each of its phases.

    python3 tools/phase_rss.py --workload transport_n96 [--n 48]

Runs panel member 0 of one workload of kbench/workloads.py once, in this
fresh process, with the pins kbench/run.py sets before it imports the
library: BLAS/OpenMP on one thread, and glibc malloc keeping freed memory
for reuse (no chunk gets its own mapping, the heap is never trimmed).  It
prints the process's peak RSS (ru_maxrss) after the import, the set-up, the
timed phase, the check and the digest, in MB; the last stdout line is the
same as JSON.  --n overrides the workload's grid size.  Exits 1 when the
check reports a problem.

The peak is a high-water mark: the phase whose line first shows the final
value is the one that sets the workload's peak_rss_mb.
"""

import argparse
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "kbench")]
    from run import THREAD_VARS, pin_allocator  # stdlib only; the library is not imported yet

    for var in THREAD_VARS:
        os.environ[var] = "1"
    pinned = pin_allocator()
    import workloads

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--n", type=int, help="grid size (default: the workload's)")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    if args.n is not None:
        wl = type(wl)(args.n)
    rss = {"import": peak_mb()}
    inputs = wl.setup(0, 0)
    rss["setup"] = peak_mb()
    out = wl.run(inputs)
    rss["run"] = peak_mb()
    problems = wl.check(out)
    rss["check"] = peak_mb()
    wl.digest(out)
    rss["digest"] = peak_mb()

    for problem in problems:
        print(f"FAILED: {problem}")
    for phase, mb in rss.items():
        print(f"{phase:>7} {mb:9.1f} MB")
    record = {"workload": wl.name, "n": wl.n, "allocator_pinned": pinned, "peak_rss_mb": rss}
    print(json.dumps(dict(record, problems=problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
