#!/usr/bin/env python3
"""Compares the per-layer metrics of two sets of traced benchmark runs.

    python3 perfbench/diff.py BASE NEW

BASE and NEW are files holding the standard output of one or more
`python3 perfbench/run.py --trace 1 ...` runs (concatenate runs of several
workloads or seeds into one file; runs of the same workload are averaged).
For each workload present in both, it prints every per-layer metric in both
sets and its delta. Time metrics (ms, us) come first, ordered by the size of
their delta's share of the change in traced mean read latency
(read_mean_ms); the other metrics follow, ordered by relative change.
Front-half times (sql, profile, candidates, assign, extend) are per planned
query, so their share is an upper bound where the plan cache hits.
"""

import json
import sys

TIME_UNITS = {"ms": 1.0, "us": 1e-3}


def load(path):
    """workload -> (end_to_end, layers, units), averaged over its runs."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("report "):
                continue
            report = json.loads(line[len("report "):])
            if not report.get("trace"):
                continue
            for w in report["workloads"]:
                runs.setdefault(w["workload"], []).append(w)
    out = {}
    for name, ws in runs.items():
        def mean(section):
            keys = ws[0][section].keys()
            return {k: sum(w[section][k]["value"] for w in ws) / len(ws)
                    for k in keys}
        units = {k: v["unit"] for k, v in ws[0]["layers"].items()}
        out[name] = (mean("end_to_end"), mean("layers"), units)
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    common = [w for w in base if w in new]
    if not common:
        print("no traced workload appears in both files", file=sys.stderr)
        return 1
    for w in common:
        (be, bl, units), (ne, nl, _) = base[w], new[w]
        d_e2e = ne["read_mean_ms"] - be["read_mean_ms"]
        print(f"[{w}] read_mean_ms {be['read_mean_ms']:.4f} -> "
              f"{ne['read_mean_ms']:.4f} ({d_e2e:+.4f} ms)")
        rows = []
        for k in bl:
            if k not in nl:
                continue
            delta = nl[k] - bl[k]
            if units[k] in TIME_UNITS:
                share = delta * TIME_UNITS[units[k]] / d_e2e if d_e2e else 0.0
                rows.append((0, -abs(share), k, delta, f"{share:+8.1%}"))
            else:
                rel = delta / bl[k] if bl[k] else (0.0 if not delta else 1.0)
                rows.append((1, -abs(rel), k, delta, f"{rel:+8.1%} rel"))
        print(f"  {'metric':34s} {'base':>12s} {'new':>12s} {'delta':>12s}"
              f"  unit   share")
        for _, _, k, delta, share in sorted(rows):
            print(f"  {k:34s} {bl[k]:12.5g} {nl[k]:12.5g} {delta:+12.5g}"
                  f"  {units[k]:6s} {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
