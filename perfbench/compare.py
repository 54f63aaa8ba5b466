"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one result per line, as `run.py --record` (or `series.py`)
appends them. For every workload and metric the table gives each side's
median and quartiles, their spread (quartile distance over median), the
change of the median and, for end-to-end metrics, the verdict against
the metric's bound in BENCHMARK.json:

* `ok`      the new median is not worse than the base by more than the bound;
* `WORSE`   it is;
* `better`  it improved by more than the bound;
* `unresolved` either side's spread exceeds the bound.

Attempted and failed operation counts are summed per side; the failed
share must be the same on both. Exits 1 on a `WORSE` verdict, a failed
share that differs, or a run whose outputs failed their checks.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: str) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs[record["workload"]].append(record)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) as `statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    b, n = summary(base)[0], summary(new)[0]
    worse_by = (n - b) / b if better == "lower" else (b - n) / b
    if worse_by > bound:
        return "WORSE"
    return "better" if worse_by < -bound else "ok"


def compare(base_path: str, new_path: str) -> int:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    base, new = load(base_path), load(new_path)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    status = 0
    print(f"{'workload':<14} {'metric':<24} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'spreads':>13}  verdict")
    for workload in sorted(set(base) & set(new)):
        for name, metric in metrics.items():
            b = [r["metrics"][name]["value"] for r in base[workload] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[workload] if name in r["metrics"]]
            if not b or not n:
                continue
            (bm, b1, b3), (nm, n1, n3) = summary(b), summary(n)
            change = (nm - bm) / bm if bm else 0.0
            if "bound" in metric:
                v = verdict(b, n, metric["better"], metric["bound"])
                status |= v == "WORSE"
            else:
                v = "-"
            print(f"{workload:<14} {name:<24} {bm:>12.5g} [{b1:>9.5g}, {b3:>9.5g}] "
                  f"{nm:>12.5g} [{n1:>9.5g}, {n3:>9.5g}] {change:>+8.1%} "
                  f"{spread(b):>6.1%}/{spread(n):<6.1%} {v}  ({len(b)} vs {len(n)} runs)")
        counts = []
        for runs in (base[workload], new[workload]):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            incorrect = sum(not r["correct"] for r in runs)
            counts.append((attempted, failed, incorrect))
        (ba, bf, bi), (na, nf, ni) = counts
        same_share = bf * na == nf * ba
        status |= (not same_share) or bi > 0 or ni > 0
        print(f"{workload:<14} {'operations':<24} base {bf}/{ba} failed, {bi} incorrect runs; "
              f"new {nf}/{na} failed, {ni} incorrect runs"
              f"{'' if same_share else '  FAILED SHARE DIFFERS'}")
    return int(status)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
