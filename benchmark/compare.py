#!/usr/bin/env python3
"""Compares two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py --base A1.json A2.json ... --new B1.json ...
    python3 benchmark/compare.py --base A1.json A2.json ...   # spread only

Each file is what `benchmark/run.sh --out FILE` writes (the results of one
or more workloads) or what the driver writes with --out (one workload).
For every workload and metric the table gives each side's median and
quartiles (statistics.quantiles, n=4) over its files. An end-to-end metric
is labelled

  within bound  the new median is not worse than the base median by more
                than the metric's bound;
  regressed     it is worse by more than the bound;
  unresolved    either side's quartile spread, as a share of its median, is
                wider than the bound, so the runs cannot tell.

Per-layer metrics have no bound and are listed with their change. The
exact first-pass counts and the answers digest must agree between runs of
the same workload and seed; any difference is reported.
"""

import argparse
import json
import os
import statistics
import sys


def load_results(path):
    with open(path) as f:
        doc = json.load(f)
    return doc["results"] if "results" in doc else [doc]


def collect(paths):
    """-> {workload: [result, ...]} over every file."""
    by_workload = {}
    for path in paths:
        for r in load_results(path):
            by_workload.setdefault(r["workload"], []).append(r)
    return by_workload


def summary(values):
    """(median, q1, q3, spread share) of a list of numbers."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return med, q1, q3, spread


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def fmt(v):
    return f"{v:.4g}"


def label(spec, base, new):
    """Label one end-to-end metric from its two summaries."""
    bound = spec["bound"]
    bmed, _, _, bspread = base
    nmed, _, _, nspread = new
    if bspread > bound or nspread > bound:
        return "unresolved"
    if not bmed:
        return "within bound" if nmed == bmed else "regressed"
    worse = (nmed - bmed) / abs(bmed)
    if spec["better"] == "higher":
        worse = -worse
    return "regressed" if worse > bound else "within bound"


def check_exact(base, new):
    """Differences in counts/digest between runs of one workload and seed."""
    problems = []
    seen = {}
    for side, runs in (("base", base), ("new", new)):
        for r in runs:
            key = (r["seed"], r["trace"])
            exact = dict(r.get("counts", {}))
            exact = {k: v["value"] for k, v in exact.items()}
            exact["answers_digest"] = r.get("answers_digest")
            if key in seen and seen[key][1] != exact:
                diff = sorted(k for k in exact if exact[k] != seen[key][1].get(k))
                problems.append(
                    f"seed {key[0]} trace {key[1]}: {side} differs from "
                    f"{seen[key][0]} in {', '.join(diff)}")
            else:
                seen.setdefault(key, (side, exact))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True, help="base result files")
    ap.add_argument("--new", nargs="*", default=[], help="new result files")
    ap.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = [m["name"] for m in bench["per_layer"]]

    base = collect(args.base)
    new = collect(args.new) if args.new else {}
    status = 0
    for workload in sorted(set(base) | set(new)):
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        print(f"\n== {workload}: base {len(b_runs)} runs, new {len(n_runs)} runs")
        for side, runs in (("base", b_runs), ("new", n_runs)):
            bad = [r for r in runs if not r["correct"] or r["failed"]]
            for r in bad:
                print(f"  {side} seed {r['seed']}: INCORRECT "
                      f"({r['failed']} of {r['attempted']} failed)")
                status = 1
        for problem in check_exact(b_runs, n_runs):
            print(f"  exact counts: {problem}")
            status = 1

        print(f"  {'metric':34} {'base median [q1, q3]':>32}  "
              f"{'new median [q1, q3]':>32}  {'change':>8}  verdict")
        for name in list(e2e) + layers:
            bv, nv = metric_values(b_runs, name), metric_values(n_runs, name)
            if not bv and not nv:
                continue
            bs = summary(bv) if bv else None
            ns = summary(nv) if nv else None
            cell = lambda s: (f"{fmt(s[0])} [{fmt(s[1])}, {fmt(s[2])}]"
                              if s else "-")
            change = ""
            if bs and ns and bs[0]:
                change = f"{100 * (ns[0] - bs[0]) / abs(bs[0]):+.1f}%"
            verdict = ""
            if name in e2e:
                spec = e2e[name]
                if bs and ns:
                    verdict = label(spec, bs, ns)
                    status |= verdict == "regressed"
                else:
                    s = bs or ns
                    verdict = (f"spread {100 * s[3]:.1f}% of bound "
                               f"{100 * spec['bound']:.0f}%")
            print(f"  {name:34} {cell(bs):>32}  {cell(ns):>32}  "
                  f"{change:>8}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
