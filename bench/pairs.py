"""Alternating perfbench pairs of two checkouts, summarized per end-to-end metric.

Run from anywhere, with two checkouts of the repository:

    python3 bench/pairs.py --parent ../parent --change . --workload orbit-lab \\
        --pairs 10 --seed 2501 --out BENCH_25.json

Pair i runs ``perfbench/run.py --workload W --seed S+i --trace 0`` in each
checkout (its own ``perfbench`` and ``src``), at perfbench's default run
length, which is the benchmark's, the parent first in even pairs and the
change first in odd ones, so that a drift of the host's speed falls on both
sides alike.  Every ``__pycache__`` under both checkouts is deleted before
each run: with bytecode writes off a stale ``.pyc`` makes every child of one
tree compile a module while the other loads it from the cache, or the other
way round.

For each end-to-end metric the summary gives both sides' medians and
quartiles, the number of pairs the change won (lower is better; ties count for
neither side), the median gap (parent minus change) and whether that gap
exceeds the parent's interquartile range.  It also says whether each pair's
round digests agree and whether every run was correct.  ``--out`` merges the
summary into the ``workloads`` block of a JSON file under the workload's name.
The standard library is all it needs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

METRICS = ("setup_s", "wall_s", "cpu_s", "op_p50_s", "op_tail_s", "peak_rss_mb")


def clear_bytecode(root: str):
    for d, subdirs, _ in os.walk(root):
        if "__pycache__" in subdirs:
            shutil.rmtree(os.path.join(d, "__pycache__"))
            subdirs.remove("__pycache__")


def perfbench(root: str, workload: str, seed: int) -> dict:
    """One end-to-end perfbench run in ``root``: metrics, correctness and the
    round digest."""
    clear_bytecode(root)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = re.search(r"round_digest=(\w+)", done.stdout)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "digest": digest and digest.group(1)}


def quartiles(xs: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def summarize(runs: list[tuple[dict, dict]]) -> dict:
    out = {"pairs": len(runs),
           "correct": all(p["correct"] and c["correct"] for p, c in runs),
           "round_digests_identical": all(p["digest"] == c["digest"] for p, c in runs)}
    for m in METRICS:
        par = [p["metrics"][m] for p, _ in runs]
        chg = [c["metrics"][m] for _, c in runs]
        pq = quartiles(par)
        gap = statistics.median(par) - statistics.median(chg)
        out[m] = {"parent_median": round(statistics.median(par), 4), "parent_quartiles": pq,
                  "change_median": round(statistics.median(chg), 4),
                  "change_quartiles": quartiles(chg),
                  "change_better": sum(c < p for p, c in zip(par, chg)),
                  "median_gap": round(gap, 4), "parent_iqr": round(pq[1] - pq[0], 4),
                  "gap_exceeds_parent_iqr": gap > pq[1] - pq[0],
                  "parent_runs": [round(x, 4) for x in par],
                  "change_runs": [round(x, 4) for x in chg]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10,
                    help="number of pairs, at least 10 (a claim needs 9 wins in 10)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--out", help="JSON file whose workloads block receives the summary")
    args = ap.parse_args(argv)
    if args.pairs < 10:
        ap.error("need at least 10 pairs")

    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: perfbench(getattr(args, side), args.workload, seed)
               for side in order}
        runs.append((got["parent"], got["change"]))
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + "  ".join(
            f"{m} {got['parent']['metrics'][m]:.4f} -> {got['change']['metrics'][m]:.4f}"
            for m in ("wall_s", "cpu_s", "setup_s")), flush=True)
    summary = {"seeds": [args.seed + i for i in range(args.pairs)], **summarize(runs)}

    print(f"{args.workload}: {args.pairs} pairs, correct={summary['correct']}, "
          f"round digests identical={summary['round_digests_identical']}")
    for m in METRICS:
        s = summary[m]
        print(f"  {m:12} parent {s['parent_median']:.4f} {s['parent_quartiles']}  "
              f"change {s['change_median']:.4f} {s['change_quartiles']}  "
              f"change better {s['change_better']}/{args.pairs}  gap {s['median_gap']:+.4f} "
              f"vs parent IQR {s['parent_iqr']:.4f}: "
              f"{'exceeds' if s['gap_exceeds_parent_iqr'] else 'within'}")
    if args.out:
        record = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                record = json.load(f)
        record.setdefault("workloads", {})[args.workload] = summary
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
