"""``run.py --smoke``: the ledger checking itself, at tiny sizes.

Runs every workload in this process on its small world — twice
untraced with one seed, set up once more with another, once traced —
and checks what the ledger promises about its own numbers rather than
what the numbers are:

``rows``       every end-to-end row a workload reports is present with
               its unit and clock tag, and every per-layer row is
               produced by at least one workload;
``repeat``     ``virtual`` and ``count`` rows are bit-identical across
               the two same-seed runs, and so are the generated inputs;
``seed``       another seed generates other inputs;
``trace``      per-layer self times sum to no more than the traced
               wall time, and uninstalling the tracer leaves no
               recorder behind;
``oracle``     every workload's outputs pass its oracle;
``manifest``   ``BENCHMARK.json`` names the same workloads, rows,
               units and bounds as ``ledger.metrics``.
"""

from __future__ import annotations

import json

from ledger import harness, metrics
from ledger.harness import Size

SIZE = Size(seconds=0.4, tiny=True)
SEED, OTHER_SEED = 11, 12
CHECKS = ("rows", "repeat", "seed", "trace", "oracle", "manifest")


def _unwrapped_targets() -> list[str]:
    """Trace targets that still resolve to a recorder."""
    from ledger.trace import TARGETS, resolve
    targets = [target for _, target in TARGETS] + [
        "ledger.harness:Stopwatch.timed", "ledger.harness:Stopwatch._sample"]
    return [target for target in targets
            if hasattr(getattr(*resolve(target)), "__wrapped__")]


def _check_manifest() -> list[str]:
    manifest = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    problems = []
    from ledger.run import load
    if [(w["name"], w["why"]) for w in manifest["workloads"]] != [
            (name, load(name).WHY) for name in metrics.WORKLOADS]:
        problems.append("workloads differ from ledger.metrics.WORKLOADS "
                        "and each module's WHY")
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in manifest["end_to_end"]]
    if declared != [(m.name, m.unit, m.better, m.bound)
                    for m in metrics.CORE]:
        problems.append("end_to_end differs from ledger.metrics.CORE")
    declared = [(m["name"], m["unit"], m["better"])
                for m in manifest["per_layer"]]
    if declared != [(m.name, m.unit, m.better)
                    for m in metrics.PER_LAYER]:
        problems.append("per_layer differs from ledger.metrics.PER_LAYER")
    return problems


def run() -> dict[str, list[str]]:
    """``{check name: problems}``; all lists empty means the ledger
    keeps its promises."""
    from ledger.run import (discard, load, measure_end_to_end,
                            measure_per_layer)
    found: dict[str, list[str]] = {check: [] for check in CHECKS}
    layer_rows_seen: set[str] = set()
    for workload in metrics.WORKLOADS:
        module = load(workload)
        first = measure_end_to_end(module, SEED, SIZE, 1, 0.0)
        again = measure_end_to_end(module, SEED, SIZE, 1, 0.0)
        traced = measure_per_layer(module, SEED, SIZE)

        for metric in metrics.END_TO_END:
            cell = first["metrics"].get(metric.name)
            if not metric.reported_on(workload):
                continue
            if cell is None:
                found["rows"].append(f"{workload} lacks {metric.name}")
            elif (cell["unit"], cell["clock"]) != (metric.unit,
                                                   metric.clock):
                found["rows"].append(
                    f"{workload}.{metric.name} is tagged "
                    f"{cell['unit']}/{cell['clock']}")
            elif (metric.clock in ("virtual", "count")
                  and cell["value"] != again["metrics"][metric.name][
                      "value"]):
                found["repeat"].append(
                    f"{workload}.{metric.name}: {cell['value']!r} then "
                    f"{again['metrics'][metric.name]['value']!r}")
        if first["inputs"] != again["inputs"]:
            found["repeat"].append(f"{workload}: same seed, other inputs")
        with harness.workdir() as work:
            other = module.setup(OTHER_SEED, SIZE, work)
            if harness.fingerprint(other.inputs) == first["inputs"]:
                found["seed"].append(
                    f"{workload}: seed {OTHER_SEED} generated the "
                    f"inputs of seed {SEED}")
            discard(module, other)

        layer_rows_seen.update(traced["metrics"])
        self_ms = sum(span["self_ms"] for span in traced["spans"])
        if self_ms > traced["traced_wall_s"] * 1e3 * 1.0001:
            found["trace"].append(
                f"{workload}: self times sum to {self_ms:.1f} ms, more "
                f"than the {traced['traced_wall_s'] * 1e3:.1f} ms traced")
        if traced["patches_left"]:
            found["trace"].append(f"{workload}: {traced['patches_left']}"
                                  " patches left installed")
        for result in (first, again, traced):
            found["oracle"] += [f"{workload}: {problem}"
                                for problem in result["problems"]]
    found["trace"] += [f"{target} is still a recorder"
                       for target in _unwrapped_targets()]
    found["rows"] += [f"no workload reports {metric.name}"
                      for metric in metrics.PER_LAYER
                      if metric.name not in layer_rows_seen]
    found["manifest"] = _check_manifest()
    return found


def main() -> int:
    found = run()
    for check in CHECKS:
        print(f"{check:<10}{'ok' if not found[check] else 'FAILED'}")
        for problem in found[check]:
            print(f"    {problem}")
    return 1 if any(found.values()) else 0
