"""Compare two sets of benchmark result files against the bounds of
BENCHMARK.json.

    python3 perfbench/compare.py --base .perfbench_out/A*.json --new .perfbench_out/B*.json

Run it from the repository root, whose BENCHMARK.json gives the bounds.
Result files are the JSON objects that run.py writes to `.perfbench_out/`.
For every workload and metric present on both sides it prints the median
of each side, the quartile spread of the base side as a share of its
median, and the change as a share of the base median.  An end-to-end
metric whose change is worse than its bound is marked WORSE; one whose
base spread is wider than its bound is marked unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def _load(paths) -> dict:
    """{(workload, metric): [values]}, with the failed share as metric 'failed_share'."""
    values = defaultdict(list)
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for name, metric in doc["metrics"].items():
            values[doc["workload"], name].append(metric["value"])
        values[doc["workload"], "failed_share"].append(doc["failed"] / doc["attempted"])
    return values


def _share(delta, base) -> float:
    """delta as a share of base; 0 when both are 0."""
    if delta == 0:
        return 0.0
    return delta / abs(base) if base else float("inf")


def _spread(xs) -> float:
    if len(xs) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return _share(q3 - q1, statistics.median(xs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two sets of result files")
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)

    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    base, new = _load(args.base), _load(args.new)
    print(f"{'workload':<18} {'metric':<44} {'base':>12} {'new':>12} {'spread':>7} {'change':>8}")
    for key in sorted(set(base) & set(new)):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = _share(n - b, b)
        spread = _spread(base[key])
        verdict = ""
        if key[1] in bounds:
            better, bound = bounds[key[1]]
            worse = change > bound if better == "lower" else -change > bound
            verdict = "WORSE" if worse else ("unresolved" if spread > bound else "")
        print(f"{key[0]:<18} {key[1]:<44} {b:>12.6g} {n:>12.6g} {spread:>7.1%} {change:>+8.1%} {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
