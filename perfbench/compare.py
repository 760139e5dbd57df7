#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (workload, metric).

    python3 perfbench/compare.py --base p1.json p2.json ... --new c1.json c2.json ...

Each file is the --json output of one perf.exe run.  For every
(workload, metric) the script prints each side's median and quartiles
(statistics.quantiles, n=4) over its runs, the change of the medians,
and a verdict.  Gated (end-to-end) metrics take their bound and
direction from BENCHMARK.json:

  worse       the new median is worse than the base median by more
              than the bound
  unresolved  the run-to-run spread (q3 - q1 over the median, on either
              side) is wider than the bound, and not every new run
              beats every base run
  better      improved by more than the base side's own spread; when
              both sides have the same number of runs, taken as
              alternating pairs, the new run must also win at least
              nine pairs in ten
  same        otherwise

Per-layer metrics have no bound and are printed as "info".  The exit
status is 1 when any gated metric is worse or unresolved.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    """{(workload, metric): [value per run]}, runs in file order."""
    values = {}
    for path in paths:
        with open(path) as f:
            for row in json.load(f):
                if row["value"] is not None:
                    key = (row["experiment"], row["metric"])
                    values.setdefault(key, []).append(row["value"])
    return values


def summary(vs):
    med = statistics.median(vs)
    q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], vs[0], vs[0])
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(base, new, bound, higher_is_better):
    bmed, _, _, bspread = summary(base)
    nmed, _, _, nspread = summary(new)
    sign = 1.0 if higher_is_better else -1.0
    gain = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if max(bspread, nspread) > bound:
        return "better" if all_better else "unresolved"
    if -gain > bound:
        return "worse"
    if gain > bspread:
        if len(base) != len(new):
            return "better"
        wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
        if wins >= 0.9 * len(base):
            return "better"
    return "same"


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", nargs="+", required=True, help="result files of the parent")
    p.add_argument("--new", nargs="+", required=True, help="result files of the change")
    p.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    gated = {m["name"]: m for m in bench["end_to_end"]}
    base, new = load(args.base), load(args.new)
    order = [w["name"] for w in bench["workloads"]]
    keys = sorted(set(base) & set(new),
                  key=lambda k: (order.index(k[0]) if k[0] in order else len(order),
                                 k[1] not in gated, k[1]))
    print(f"{'workload':<16} {'metric':<30} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    failing = 0
    for key in keys:
        b, n = base[key], new[key]
        bmed, bq1, bq3, _ = summary(b)
        nmed, nq1, nq3, _ = summary(n)
        change = (nmed - bmed) / abs(bmed) * 100 if bmed else 0.0
        m = gated.get(key[1])
        if m is None:
            bound, word = "", "info"
        else:
            bound = f"{m['bound'] * 100:.0f}%"
            word = verdict(b, n, m["bound"], m["better"] == "higher")
            failing += word in ("worse", "unresolved")
        print(f"{key[0]:<16} {key[1]:<30} {bmed:>12.5g} [{bq1:>9.4g}, {bq3:>9.4g}] "
              f"{nmed:>12.5g} [{nq1:>9.4g}, {nq3:>9.4g}] {change:>7.1f}% {bound:>6}  {word}")
    print(f"\n{len(args.base)} base runs, {len(args.new)} new runs; "
          f"{failing} gated metrics worse or unresolved")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
