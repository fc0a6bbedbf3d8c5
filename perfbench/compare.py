#!/usr/bin/env python3
"""Compare two sets of benchmark results, e.g. a parent commit's and a
change's.

    python3 perfbench/compare.py PARENT_DIR CHILD_DIR \\
        [--claim WORKLOAD:METRIC ...]

Each directory holds the records run.py saves (results/, one per
workload, seed and trace setting). For every workload and end-to-end
metric it prints each side's median and quartiles over the untraced
runs and the verdict under BENCHMARK.json's bound: better, within bound,
worse, or unresolved when the spread is wider than the bound. Per-layer
metrics from the traced runs are printed as median deltas. A --claim
also prints the pair win count (runs paired by seed) and whether the
claim holds: the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's quartile distance.

Exits 1 when any end-to-end metric is worse or any run failed an
operation.
"""

import argparse
import json
import sys
from pathlib import Path

import benchlib


def load(directory):
    """(workload, trace) -> {seed: record}"""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if not {"workload", "seed", "trace", "metrics"} <= rec.keys():
            continue
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return out


def series(runs, name):
    return [runs[s]["metrics"][name]["value"] for s in sorted(runs)
            if name in runs[s]["metrics"]]


def fmt_q(values):
    q1, q2, q3 = benchlib.quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def compare_e2e(spec, workload, parent, child, claims):
    worse = False
    print(f"\n{workload}: {len(parent)} parent runs, {len(child)} change "
          "runs (median [q1, q3])")
    print(f"  {'metric':20} {'parent':34} {'change':34} {'diff':>8}  verdict")
    for d in spec["end_to_end"]:
        p, c = series(parent, d["name"]), series(child, d["name"])
        if not p or not c:
            continue
        pm, cm = benchlib.median(p), benchlib.median(c)
        diff = (cm - pm) / abs(pm) if pm else 0.0
        v = benchlib.verdict(p, c, d["better"], d["bound"])
        worse |= v == "worse"
        print(f"  {d['name']:20} {fmt_q(p):34} {fmt_q(c):34} "
              f"{diff:>+8.2%}  {v} (bound {d['bound']:.0%})")
        if (workload, d["name"]) in claims:
            seeds = sorted(set(parent) & set(child))
            pp = [parent[s]["metrics"][d["name"]]["value"] for s in seeds]
            cc = [child[s]["metrics"][d["name"]]["value"] for s in seeds]
            wins = benchlib.pair_wins(pp, cc, d["better"])
            held = benchlib.claim_holds(pp, cc, d["better"])
            print(f"    claim {workload}:{d['name']}: change wins {wins} "
                  f"of {len(seeds)} pairs; "
                  f"{'holds' if held else 'not met'}")
    return worse


def compare_layers(spec, parent, child):
    print(f"  per-layer (traced runs: {len(parent)} parent, "
          f"{len(child)} change; median)")
    for d in spec["per_layer"]:
        p, c = series(parent, d["name"]), series(child, d["name"])
        if not p or not c:
            continue
        pm, cm = benchlib.median(p), benchlib.median(c)
        if pm == 0 and cm == 0:
            continue
        diff = f"{(cm - pm) / abs(pm):+.2%}" if pm else "new"
        print(f"    {d['name']:28} {pm:>14.6g} -> {cm:<14.6g} {diff:>8}  "
              f"{d['unit']}, {d['better']} is better")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("child", type=Path)
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD:METRIC",
                    help="print pair wins and whether the gain holds")
    opts = ap.parse_args()
    spec = benchlib.load_spec()
    claims = {tuple(c.split(":", 1)) for c in opts.claim}
    a, b = load(opts.parent), load(opts.child)
    bad = False
    for workload in benchlib.WORKLOADS:
        pa, ch = a.get((workload, 0), {}), b.get((workload, 0), {})
        la, lb = a.get((workload, 1), {}), b.get((workload, 1), {})
        if pa and ch:
            bad |= compare_e2e(spec, workload, pa, ch, claims)
            hosts = {json.dumps({k: r["host"].get(k) for k in
                                 ("nproc", "compiler", "build_type")})
                     for r in list(pa.values()) + list(ch.values())}
            if len(hosts) > 1:
                print("  warning: runs come from different hosts or builds")
        if la and lb:
            if not (pa and ch):
                print(f"\n{workload}:")
            compare_layers(spec, la, lb)
        for side, runs in (("parent", list(pa.values()) + list(la.values())),
                           ("change", list(ch.values()) + list(lb.values()))):
            failed = sum(r["failed"] for r in runs)
            if failed:
                bad = True
                print(f"  {side}: {failed} failed operations")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
