#!/usr/bin/env python3
"""Compare two sets of bench/e2e runs, one end-to-end metric at a time.

    python3 bench/e2e/compare.py A_DIR B_DIR

A_DIR holds the rio.e2e.v1 files of the parent (or of the first set),
B_DIR those of the change (or of the second set); run.sh --out DIR writes
them. Files written with --trace are skipped: their rounds also carry the
traced pass, so their end-to-end numbers are not comparable.

For every workload and end-to-end metric it prints the median and quartiles
of each set, the relative difference of the medians, and one verdict:

  within bound  the change's median is no worse than the parent's by more
                than the metric's bound (or the spread is wider than the
                bound but every run of the change reads better than every
                run of the parent);
  regressed     worse by more than the bound; for fail_frac, whose bound is
                "any increase", any run of the change failing more than
                every run of the parent;
  unresolved    the spread of either set (quartile distance over median) is
                wider than the bound, so the sets cannot tell.

Exit status: 0 when every verdict is "within bound", 3 otherwise, 2 on
unusable input. Standard library only.
"""

import json
import pathlib
import statistics
import sys


def load(directory):
    """Returns (files used, {workload: {metric: [value per file]}}, {metric: info})."""
    values, info, used = {}, {}, 0
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("schema") != "rio.e2e.v1" or doc.get("trace"):
            continue
        used += 1
        for record in doc["workloads"]:
            for name, metric in record["metrics"].items():
                if metric.get("layer") != "e2e":
                    continue
                values.setdefault(record["workload"], {}).setdefault(name, []).append(
                    metric["value"])
                info[name] = metric
    return used, values, info


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    if bound == 0:
        return "regressed" if sign * (max(b) - max(a)) > 0 else "within bound"
    med_a, med_b = statistics.median(a), statistics.median(b)
    if max(spread(a), spread(b)) > bound:
        better = [sign * x for x in b]
        return "within bound" if max(better) < min(sign * x for x in a) else "unresolved"
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    return "regressed" if worse > bound else "within bound"


def main(argv):
    if len(argv) != 3:
        print("usage: compare.py A_DIR B_DIR", file=sys.stderr)
        return 2
    sets = [load(d) for d in argv[1:]]
    for directory, (used, _, _) in zip(argv[1:], sets):
        if used == 0:
            print(f"compare.py: no untraced rio.e2e.v1 files in {directory}", file=sys.stderr)
            return 2
    (n_a, runs_a, info), (n_b, runs_b, _) = sets
    print(f"A = {argv[1]} ({n_a} runs)   B = {argv[2]} ({n_b} runs)")
    fmt = "{:<26} {:>6} {:>32} {:>32} {:>8} {:>6}  {}"
    bad = 0
    for workload, metrics in runs_a.items():
        print(f"\n== {workload}")
        print(fmt.format("metric", "unit", "A q1 / median / q3", "B q1 / median / q3",
                         "B vs A", "bound", "verdict"))
        for name, a in metrics.items():
            b = runs_b.get(workload, {}).get(name)
            if not b:
                print(f"{name:<26} missing in B")
                bad += 1
                continue
            meta = info[name]
            bound = meta.get("bound", 0.0)
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = f"{100 * (med_b - med_a) / abs(med_a):+.1f}%" if med_a else "n/a"
            v = verdict(a, b, bound, meta.get("better", "lower") == "lower")
            bad += v != "within bound"
            show = lambda xs: " / ".join(f"{x:.4g}" for x in quartiles(xs))
            print(fmt.format(name, meta["unit"], show(a), show(b), diff,
                             "any" if bound == 0 else f"{100 * bound:.0f}%", v))
    return 3 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
