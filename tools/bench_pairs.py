"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

    python3 tools/bench_pairs.py PARENT_REV --out BENCH_8.json \
        --workload transport_n96:10 --workload tower_uwave32:3 \
        --claim transport_n96:peak_rss_mb --title "what the change does"

Each side runs from its own directory holding that side's src/ and kbench/:
`git archive PARENT_REV` for the parent, and for the change `git archive` of
--change REV or, by default, a copy of this checkout's working tree.  An
archive, unlike a worktree, leaves nothing registered in the repository if
the run is interrupted.  Every paired run is the unchanged

    python3 kbench/run.py --workload NAME --seed 0 --seconds RUN_SECONDS --trace 0

from that side's root, RUN_SECONDS being BENCHMARK.json's run_seconds,
strictly one at a time; odd pairs run the parent first, even pairs the
change.  After each pair, the change's kbench/compare.py diffs the two
output digests.  A workload named by --trace then runs once more per side
with --trace 1, for its per-layer metrics (call counts, MB moved, self
times).  The BENCH file holds every pair's metrics and each run's
fresh-interpreter import times, per metric the quartiles of each side, the
change's wins, losses and ties and the parent's quartile spread, the traced
runs' per-layer metrics, and for --claim whether the change won at least
nine in ten pairs with a median gain beyond that spread.  Every metric also
gets a no-regression verdict against its bound: "worse", "unresolved" or
"ok" (see `verdict`); setup_s's summary also splits each side into its
import time and its set-up beyond the import (see `setup_split`).  The
metrics, their better direction and their bounds come from BENCHMARK.json's
end_to_end list.
"""

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREE_DIRS = ("src", "kbench")
# a claimed gain must win this share of all pairs run, ties counting for neither
CLAIM_WIN_SHARE = 0.9
SEED = 0


def export_tree(rev, dest):
    """src/ and kbench/ of a revision (or of the working tree for rev=None)."""
    if rev is None:
        ignore = shutil.ignore_patterns("results", "__pycache__")
        for name in TREE_DIRS:
            shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
        return
    cmd = ["git", "archive", "--format=tar", rev, *TREE_DIRS]
    blob = subprocess.run(cmd, cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(blob.stdout)) as tar:
        tar.extractall(dest, filter="data")


def kbench_run(tree, workload, seconds, trace):
    """One kbench run from a tree's root; returns its JSON result line."""
    cmd = [sys.executable, "kbench/run.py", "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced_side(tree, workload, seconds):
    """One --trace 1 run: its per-layer metric values (call counts, bytes
    moved, self times) and whether it passed its checks."""
    result = kbench_run(tree, workload, seconds, 1)
    side = {name: m["value"] for name, m in result["metrics"].items()}
    side["correct"] = result["correct"]
    return side


def run_side(tree, workload, seconds, record_copy):
    """One kbench run; returns its end-to-end metrics and keeps its record."""
    result = kbench_run(tree, workload, seconds, 0)
    shutil.copy(os.path.join(tree, "kbench", "results", f"{workload}-seed{SEED}-trace0.json"), record_copy)
    with open(record_copy) as fh:
        record = json.load(fh)
    return side_entry(result, record)


def side_entry(result, record):
    """One side of a pair: the run's end-to-end metric values and counts,
    and from its record the fresh-interpreter import times that setup_s
    takes the median of, so a setup_s verdict can be read against them."""
    side = {name: m["value"] for name, m in result["metrics"].items()}
    side.update(attempted=result["attempted"], failed=result["failed"], correct=result["correct"])
    side["import_s"] = record["import_s"]
    return side


def compare(tree, parent_record, change_record):
    cmd = [sys.executable, "kbench/compare.py", parent_record, change_record]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    return {"exit": done.returncode, "verdict": done.stdout.strip().splitlines()[-1]}


def summarize(pairs, metric, better):
    """Quartiles per side, the change's wins/losses/ties and the parent's IQR."""
    sign = 1.0 if better == "lower" else -1.0
    parent = np.array([p["parent"][metric] for p in pairs], dtype=float)
    change = np.array([p["change"][metric] for p in pairs], dtype=float)
    gain = sign * (parent - change)  # positive where the change is better
    quartiles = {}
    for side, values in (("parent", parent), ("change", change)):
        quartiles[side] = dict(zip(("q1", "median", "q3"), np.percentile(values, [25, 50, 75]).tolist()))
    p_med, c_med = quartiles["parent"]["median"], quartiles["change"]["median"]
    return dict(
        quartiles,
        change_wins=int(np.sum(gain > 0)),
        change_losses=int(np.sum(gain < 0)),
        ties=int(np.sum(gain == 0)),
        parent_iqr=quartiles["parent"]["q3"] - quartiles["parent"]["q1"],
        median_rel_change=(c_med - p_med) / p_med if p_med else 0.0,
        # every run of the change reads better than every run of the parent
        change_runs_all_better=bool(np.max(sign * change) < np.min(sign * parent)),
    )


def setup_split(pairs):
    """Each side's median over the pairs of its run's median import_s, and
    of its setup_s less that median: the set-up beyond the fresh-interpreter
    import, which setup_s adds to the import's median."""
    split = {}
    for side in ("parent", "change"):
        imports = [float(np.median(p[side]["import_s"])) for p in pairs]
        beyond = [p[side]["setup_s"] - i for p, i in zip(pairs, imports)]
        split[side] = {"import_s": float(np.median(imports)), "beyond_import_s": float(np.median(beyond))}
    return split


def verdict(summary, bound, better):
    """No-regression verdict of one metric on one workload, `bound` being
    the relative worsening BENCHMARK.json allows:
      "worse"       the change's median is worse than the parent's by more
                    than bound (relative to the parent's median);
      "unresolved"  otherwise, when the parent's quartile spread exceeds
                    bound relative to its median and not every change run
                    reads better than every parent run;
      "ok"          otherwise."""
    sign = 1.0 if better == "lower" else -1.0
    p_med = summary["parent"]["median"]
    if sign * (summary["change"]["median"] - p_med) > bound * abs(p_med):
        return "worse"
    if summary["parent_iqr"] > bound * abs(p_med) and not summary["change_runs_all_better"]:
        return "unresolved"
    return "ok"


def claim_met(summary, pairs_run, better):
    """At least CLAIM_WIN_SHARE of the pairs won, and the medians apart by
    more than the parent's quartile spread, in the better direction."""
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (summary["parent"]["median"] - summary["change"]["median"])
    return summary["change_wins"] >= CLAIM_WIN_SHARE * pairs_run and gain > summary["parent_iqr"]


def host():
    ram_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (
        f"{len(os.sched_getaffinity(0))} cores, {ram_gb:.0f} GB RAM, {platform.system()} "
        f"{platform.release()}, python {platform.python_version()}, numpy {np.__version__}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", help="parent revision")
    parser.add_argument("--change", help="change revision (default: this checkout's working tree)")
    parser.add_argument("--workload", action="append", required=True, help="NAME[:PAIRS], PAIRS default 10")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument(
        "--trace", action="append", default=[], help="WORKLOAD to run once per side with --trace 1 after its pairs"
    )
    parser.add_argument("--title", default="", help="what the change does")
    parser.add_argument("--out", required=True, help="BENCH file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    plan = []
    for spec in args.workload:
        name, _, pairs = spec.partition(":")
        plan.append((name, int(pairs or 10)))
    unpaired = set(args.trace) - {name for name, _ in plan}
    if unpaired:
        parser.error(f"--trace names workloads without pairs: {sorted(unpaired)}")

    out = {
        "change": args.title,
        "parent": args.parent,
        "host": host(),
        "commands": {
            "trees": f"git archive {args.parent} for the parent; "
            + (f"git archive {args.change}" if args.change else "a copy of the working tree")
            + " for the change",
            "run": f"python3 kbench/run.py --workload <name> --seed {SEED} "
            f"--seconds {seconds:g} --trace 0 (from each tree's root)",
            "order": "odd pairs parent first, even pairs change first; runs strictly sequential",
            "compare": "python3 kbench/compare.py <parent record> <change record> (per pair)",
            "traced": "the same run with --trace 1, once per side after the pairs, for "
            + (", ".join(args.trace) or "no workload"),
            "tool": "tools/bench_pairs.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        export_tree(args.parent, trees["parent"])
        export_tree(args.change, trees["change"])
        for name, n_pairs in plan:
            pairs = []
            for i in range(1, n_pairs + 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                records = {side: os.path.join(tmp, f"{side}.json") for side in order}
                pair = {side: run_side(trees[side], name, seconds, records[side]) for side in order}
                pair["compare"] = compare(trees["change"], records["parent"], records["change"])
                pair["first"] = order[0]
                pairs.append(pair)
                print(f"{name} pair {i}/{n_pairs}: " + json.dumps(pair), file=sys.stderr, flush=True)
            summary = {metric: summarize(pairs, metric, way) for metric, way in better.items()}
            for metric, way in better.items():
                summary[metric]["verdict"] = verdict(summary[metric], bounds[metric], way)
            summary["setup_s"]["import_split"] = setup_split(pairs)
            out["workloads"][name] = {"pairs": pairs, "summary": summary}
            if name in args.trace:
                traced = {side: traced_side(trees[side], name, seconds) for side in ("parent", "change")}
                out["workloads"][name]["traced"] = traced
            print(
                f"{name}: " + ", ".join(f"{m} {s['verdict']}" for m, s in summary.items()),
                file=sys.stderr,
                flush=True,
            )
    if args.claim:
        name, _, metric = args.claim.partition(":")
        summary = out["workloads"][name]["summary"][metric]
        pairs = out["workloads"][name]["pairs"]
        out["claim"] = {
            "metric": f"{name} {metric}",
            "per_pair_relative_change": [
                (p["change"][metric] - p["parent"][metric]) / p["parent"][metric] for p in pairs
            ],
            "met": claim_met(summary, len(pairs), better[metric]),
        }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
