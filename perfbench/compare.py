#!/usr/bin/env python3
"""Compare two result sets written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

One row per workload and metric: median and quartiles of each side and the
change of the medians.  End-to-end metrics are judged against their bound
in BENCHMARK.json:

- ``REGRESSION`` / ``improved``: the medians differ by more than the bound;
- ``unchanged``: they do not;
- ``unresolved``: one side's own spread (interquartile range over median)
  exceeds the bound, so neither can be told, unless every run of one side
  reads better than every run of the other (``improved (all runs)`` /
  ``REGRESSION (all runs)``).

Per-layer metrics have no bound and are listed without a verdict.  Exits 1
when any end-to-end metric regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

SPEC_FILE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    """{(workload, metric): [values]} and the set of git SHAs."""
    values, shas = {}, set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            shas.add((rec.get("meta") or {}).get("git_sha"))
            for name, body in rec["metrics"].items():
                values.setdefault((rec["workload"], name), []).append(
                    body["value"])
    return values, shas


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def verdict(base, new, better, bound):
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1 if better == "lower" else -1
    worse = sign * (nm - bm) / bm if bm else 0.0
    spread = max((b3 - b1) / bm if bm else 0.0, (n3 - n1) / nm if nm else 0.0)
    if bound is None:
        return worse, "-"
    if spread > bound:
        if all(sign * (x - y) < 0 for x in new for y in base):
            return worse, "improved (all runs)"
        if all(sign * (x - y) > 0 for x in new for y in base):
            return worse, "REGRESSION (all runs)"
        return worse, "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    if worse < -bound:
        return worse, "improved"
    return worse, "unchanged"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(SPEC_FILE, encoding="utf-8") as fh:
        spec = json.load(fh)
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, base_sha = load(argv[0])
    new, new_sha = load(argv[1])
    print(f"base {argv[0]} git {sorted(map(str, base_sha))}")
    print(f"new  {argv[1]} git {sorted(map(str, new_sha))}")
    print(f"{'workload':<16} {'metric':<40} {'n':>5} "
          f"{'base median [q1, q3]':>30} {'new median [q1, q3]':>30} "
          f"{'worse':>8}  verdict")
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        spec_m = kinds.get(metric, {})
        worse, what = verdict(base[key], new[key], spec_m.get("better", "lower"),
                              spec_m.get("bound"))
        regressed |= what.startswith("REGRESSION")
        b1, bm, b3 = quartiles(base[key])
        n1, nm, n3 = quartiles(new[key])
        print(f"{workload:<16} {metric:<40} "
              f"{len(base[key]):>2}/{len(new[key]):<2} "
              f"{bm:>12.5g} [{b1:.4g}, {b3:.4g}] "
              f"{nm:>12.5g} [{n1:.4g}, {n3:.4g}] {worse:>+8.1%}  {what}")
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]:<16} {key[1]:<40} only in "
              f"{'base' if key in base else 'new'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
