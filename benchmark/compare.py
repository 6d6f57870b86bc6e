#!/usr/bin/env python3
"""Compares two benchmark result files written by benchmark/run.py --out.

    python3 benchmark/compare.py BASE.json NEW.json [--spec BENCHMARK.json]

For every workload and end-to-end metric both files hold, prints each side's
median and quartiles, then a verdict against the metric's bound in
BENCHMARK.json:

  regression  the new median is worse than the base median by more than the
              bound (as a share of the base median), and either every new
              run reads worse than every base run or both spreads are
              within the bound;
  unresolved  a side's spread (quartile distance over median) exceeds the
              bound, so a move within the bound cannot be told from noise;
              not reported when every new run reads better than every base
              run;
  gain        at least ten runs paired by seed: the new side wins at least
              nine tenths of the pairs (ties count for neither), and the
              medians differ by more than the base side's quartile distance;
  unchanged   none of the above.

A metric with bound 0 (macro_f1) reads the same on every run of a commit,
so any drop is a regression.

Exits 1 when any metric regressed or is unresolved. Standard library only.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

# Fewer pairs than this claim no gain: on a shared host, five runs of one
# commit have beaten five earlier runs of the same commit in every pair.
MIN_GAIN_PAIRS = 10


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound, pairs=()):
    """Verdict for one metric: base/new are run values, pairs (base, new)
    tuples of runs made with the same seed."""
    sign = 1.0 if better == "higher" else -1.0
    _, base_med, _ = quartiles(base)
    _, new_med, _ = quartiles(new)
    worse = sign * (base_med - new_med) / abs(base_med) if base_med else 0.0
    all_better = (min(new) > max(base)) if sign > 0 else (max(new) < min(base))
    all_worse = (max(new) < min(base)) if sign > 0 else (min(new) > max(base))
    if worse > bound and all_worse:
        return "regression"
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regression"
    if len(pairs) >= MIN_GAIN_PAIRS:
        wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
        q1, _, q3 = quartiles(base)
        if wins * 10 >= 9 * len(pairs) and sign * (new_med - base_med) > q3 - q1:
            return "gain"
    return "unchanged"


def run_values(report, workload, metric):
    return {r["seed"]: r["metrics"][metric]["value"]
            for r in report["workloads"][workload]["runs"]
            if metric in r["metrics"]}


def compare(base, new, spec):
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            continue
        for m in spec["end_to_end"]:
            b = run_values(base, workload, m["name"])
            n = run_values(new, workload, m["name"])
            if not b or not n:
                continue
            pairs = [(b[s], n[s]) for s in sorted(b) if s in n]
            rows.append({
                "workload": workload,
                "metric": m["name"],
                "unit": m["unit"],
                "bound": m["bound"],
                "base": quartiles(list(b.values())),
                "new": quartiles(list(n.values())),
                "verdict": verdict(list(b.values()), list(n.values()),
                                   m["better"], m["bound"], pairs),
            })
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--spec", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    spec = json.loads(Path(args.spec).read_text())

    rows = compare(base, new, spec)
    print(f"{'workload':18} {'metric':15} {'base q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'bound':>6}  verdict")
    for r in rows:
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
        print(f"{r['workload']:18} {r['metric']:15} {fmt(r['base']):>30} "
              f"{fmt(r['new']):>30} {r['bound']:>6.3f}  {r['verdict']}")
    counts = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print("summary: " + ", ".join(f"{v} {c}" for v, c in sorted(counts.items())))
    return 1 if counts.get("regression") or counts.get("unresolved") else 0


if __name__ == "__main__":
    sys.exit(main())
