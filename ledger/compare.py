"""``run.py --compare A.json B.json``: B judged against A, row by row.

Both files are ledgers written by ``run.py --out`` (ideally with
``--repeat`` >= 2, so each side has a spread of its own). For every
(workload, end-to-end metric) row the median of B is compared with the
median of A under that metric's bound:

``regressed``   B is worse than A by more than the bound;
``improved``    B is better than A by more than the bound;
``unchanged``   neither, and both sides' own runs agree within the
                bound, so the verdict means something;
``unresolved``  a side's own runs spread wider than the bound, and the
                two sides' runs overlap — the ledger cannot tell.

Every ratio is printed with its base: ``B/A`` and both medians.
Per-layer rows are not judged; they explain, they do not gate.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from ledger import metrics


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value of each run]}}`` of a ledger file."""
    ledger = json.loads(Path(path).read_text())
    table: dict[str, dict[str, list[float]]] = {}
    for workload, runs in ledger["end_to_end"].items():
        rows = table.setdefault(workload, {})
        for run in runs:
            for name, cell in run["metrics"].items():
                rows.setdefault(name, []).append(cell["value"])
    return table


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    range with four or more runs, the full range with two or three,
    and 0 for a single run (nothing to disagree with)."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def worsening(metric: metrics.Metric, base: float, new: float) -> float:
    """How much worse *new* is than *base*, as a share of *base*
    (negative when better). A zero base makes any worsening infinite."""
    delta = new - base if metric.better == "lower" else base - new
    if base:
        return delta / abs(base)
    return 0.0 if not delta else float("inf") * (1 if delta > 0 else -1)


def judge(metric: metrics.Metric, a_values: list[float],
          b_values: list[float]) -> dict:
    a_median = statistics.median(a_values)
    b_median = statistics.median(b_values)
    worse = worsening(metric, a_median, b_median)
    noise = max(spread(a_values), spread(b_values))
    lower = metric.better == "lower"
    all_better = (max(b_values) < min(a_values) if lower
                  else min(b_values) > max(a_values))
    all_worse = (min(b_values) > max(a_values) if lower
                 else max(b_values) < min(a_values))
    if noise > metric.bound:
        if all_worse and worse > metric.bound:
            status = "regressed"
        elif all_better:
            status = "improved"
        else:
            status = "unresolved"
    elif worse > metric.bound:
        status = "regressed"
    elif -worse > metric.bound and metric.bound > 0:
        status = "improved"
    else:
        status = "unchanged"
    return {"status": status, "a": a_median, "b": b_median,
            "ratio": b_median / a_median if a_median else float("nan"),
            "worse": worse, "spread": noise,
            "runs": (len(a_values), len(b_values))}


def compare(a_path: str, b_path: str) -> list[dict]:
    a_table, b_table = load(a_path), load(b_path)
    verdicts = []
    for workload in metrics.WORKLOADS:
        for metric in metrics.END_TO_END:
            a_values = a_table.get(workload, {}).get(metric.name)
            b_values = b_table.get(workload, {}).get(metric.name)
            if not a_values or not b_values:
                continue
            verdict = judge(metric, a_values, b_values)
            verdict.update(workload=workload, metric=metric.name,
                           unit=metric.unit, bound=metric.bound)
            verdicts.append(verdict)
    return verdicts


def main(a_path: str, b_path: str) -> int:
    verdicts = compare(a_path, b_path)
    print(f"A = {a_path}\nB = {b_path}   (ratios are B/A; 'worse' is "
          "B against A in the metric's bad direction)")
    for v in verdicts:
        print(f"{v['workload']:<14}{v['metric']:<20}"
              f"A={v['a']:<12.6g}B={v['b']:<12.6g}{v['unit']:<6}"
              f"B/A={v['ratio']:<8.4f}worse={v['worse']:+8.2%} "
              f"bound={v['bound']:.0%} spread={v['spread']:.2%} "
              f"runs={v['runs'][0]}/{v['runs'][1]}  {v['status']}")
    counts: dict[str, int] = {}
    for v in verdicts:
        counts[v["status"]] = counts.get(v["status"], 0) + 1
    print("  ".join(f"{status}: {count}"
                    for status, count in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0
