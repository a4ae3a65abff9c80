"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--trace 1]

Each directory holds result files written by ``run.py`` (``*.json``), for
example ``perfbench/out/results`` copied aside after running the parent
commit.  Runs of the two sets are paired by seed.  For every metric the
table gives each side's median and quartiles, the change against the
parent median, and the paired win rate, with ties counting for neither.

Verdicts, for runs paired and alternated between the two sides:

- ``improved``: the change wins at least 9 in 10 pairs and the medians
  differ, in the better direction, by more than the parent's quartile
  spread;
- ``unresolved``: the parent's own quartile spread, as a share of its
  median, is wider than the metric's bound, and not every change run is
  better than every parent run;
- ``regressed``: the change median is worse than the parent median by
  more than the bound;
- ``within bound``: otherwise.

Bounds are those of BENCHMARK.json; a metric without one (the per-layer
metrics and the extra metrics in the result files) can only be
``improved`` or ``no bound``.  The exit code is 1 when any metric
regressed.  Same-seed runs are also checked for identical outputs (the
``train_log.csv`` digest, or the bank and predictions on knn-eval): a
change that only claims speed keeps them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import METRICS  # noqa: E402


def load(directory: Path, trace: int) -> list[dict]:
    runs = []
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == trace:
            runs.append(record)
    if not runs:
        raise SystemExit(f"no trace={trace} result files in {directory}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, pairs, higher: bool, bound: float | None) -> tuple:
    """Win rate and verdict for one metric; see the module docstring."""

    def better(a, b):
        return a > b if higher else a < b

    wins = sum(better(c, p) for p, c in pairs)
    win_rate = wins / len(pairs) if pairs else float("nan")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    if pairs and wins >= 0.9 * len(pairs) and better(c_med, p_med) and (
        abs(c_med - p_med) > p_q3 - p_q1
    ):
        return win_rate, "improved"
    if bound is None:
        return win_rate, "no bound"
    every_run_better = all(better(c, p) for c in change for p in parent)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not every_run_better:
        return win_rate, "unresolved"
    worse_share = (p_med - c_med if higher else c_med - p_med) / abs(p_med or 1.0)
    return win_rate, "regressed" if worse_share > bound else "within bound"


def compare(parent_runs: list[dict], change_runs: list[dict], trace: int) -> list:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace else "metrics"
    bounds = {} if trace else {m["name"]: m["bound"] for m in config["end_to_end"]}
    better_of = {m["name"]: m["better"] for m in config["per_layer"]}
    better_of.update({k: better for k, (_unit, better) in METRICS.items()})

    rows = []
    workloads = sorted(
        {r["workload"] for r in parent_runs} & {r["workload"] for r in change_runs}
    )
    for workload in workloads:
        ps = [r for r in parent_runs if r["workload"] == workload]
        cs = [r for r in change_runs if r["workload"] == workload]
        names = [n for n in ps[0][section] if all(n in r[section] for r in ps + cs)]
        for name in names:
            parent = [r[section][name] for r in ps]
            change = [r[section][name] for r in cs]
            by_seed = {}
            for r in ps:
                by_seed.setdefault(r["seed"], []).append(r[section][name])
            pairs = []
            for r in cs:
                if by_seed.get(r["seed"]):
                    pairs.append((by_seed[r["seed"]].pop(0), r[section][name]))
            higher = better_of.get(name, "lower") == "higher"
            win_rate, outcome = verdict(parent, change, pairs, higher, bounds.get(name))
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            rows.append({
                "workload": workload, "metric": name,
                "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
                "delta_pct": (c_med / p_med - 1.0) * 100.0 if p_med else float("nan"),
                "pairs": len(pairs), "win_rate": win_rate, "verdict": outcome,
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    parent_runs = load(args.parent, args.trace)
    change_runs = load(args.change, args.trace)

    for key in ("cpu_model", "nproc", "blas", "blas_threads"):
        seen = {json.dumps(r["machine"][key]) for r in parent_runs + change_runs}
        if len(seen) > 1:
            print(f"warning: the runs differ in machine fact {key}: {sorted(seen)}")
    commits = [
        sorted({r["machine"]["git_commit"] for r in runs})
        for runs in (parent_runs, change_runs)
    ]
    print(f"parent {commits[0]} ({len(parent_runs)} runs)  "
          f"change {commits[1]} ({len(change_runs)} runs)")

    # same-seed runs of a change that only claims speed keep their outputs
    for workload in sorted({r["workload"] for r in parent_runs}):
        digests = {}
        for side, runs in (("parent", parent_runs), ("change", change_runs)):
            for r in runs:
                if r["workload"] == workload:
                    digests.setdefault(r["seed"], {}).setdefault(side, set()).add(
                        r["output_sha256"]
                    )
        both = [d for d in digests.values() if len(d) == 2]
        same = sum(1 for d in both if len(d["parent"] | d["change"]) == 1)
        print(f"{workload}: outputs identical for {same} of {len(both)} shared seeds")

    rows = compare(parent_runs, change_runs, args.trace)
    print(f"{'workload':<15} {'metric':<40} {'parent q1/median/q3':>32} "
          f"{'change q1/median/q3':>32} {'delta':>8} {'wins':>9}  verdict")
    for row in rows:
        p = "/".join(f"{v:.4g}" for v in row["parent"])
        c = "/".join(f"{v:.4g}" for v in row["change"])
        wins = f"{row['win_rate']:.0%} of {row['pairs']}" if row["pairs"] else "-"
        delta = f"{row['delta_pct']:+.1f}%" if row["parent"][1] else "-"
        print(f"{row['workload']:<15} {row['metric']:<40} {p:>32} {c:>32} "
              f"{delta:>8} {wins:>9}  {row['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
