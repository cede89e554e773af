"""Largest relative difference between the output digests of two run records.

    python3 kbench/compare.py OLD.json NEW.json

The records are the kbench/results/*.json files written by run.py for the
same workload and seed, typically on two commits.  Each digest holds
per-level, per-node sup norms of k and e and the residual sups of
repetition 0.  Exits 1 when the largest relative difference exceeds
GATE_REL, the tolerance for outputs that are not bit-exact by design, and 2
when the digests do not have the same entries.
"""

import json
import math
import sys

GATE_REL = 1e-12


def flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from flatten(obj[key], f"{prefix}/{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from flatten(value, f"{prefix}[{i}]")
    else:
        yield prefix, float(obj)


def rel_diff(a, b):
    if a == b:
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    digests = []
    for path in argv:
        with open(path) as fh:
            digests.append(dict(flatten(json.load(fh)["digest"])))
    old, new = digests
    if old.keys() != new.keys():
        print(f"digests differ in entries: {sorted(old.keys() ^ new.keys())[:10]}")
        return 2
    worst, where = max((rel_diff(old[k], new[k]), k) for k in old)
    if worst == 0.0:
        print(f"bit-exact: all {len(old)} digest entries equal")
        return 0
    print(f"largest relative difference {worst:.3e} at {where} ({old[where]!r} -> {new[where]!r})")
    return 1 if worst > GATE_REL else 0


if __name__ == "__main__":
    sys.exit(main())
