"""Shared fixtures for the experiment benchmarks.

Datasets are session-scoped: building a 200-leaf world once and sharing
it across experiments keeps the whole benchmark run in minutes. Every
experiment prints its paper-style results table through
``report_table`` so that ``pytest benchmarks/ --benchmark-only`` output
contains the rows EXPERIMENTS.md quotes.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

# Benchmarks compare wall-clock timings (e.g. E14's warm-recover vs
# cold-integrate ratio); the lock-order witness's per-acquisition
# bookkeeping would skew those ratios, so timing runs opt out of the
# suite-wide sanitizer (see the root conftest).
os.environ.setdefault("REPRO_LOCKWATCH", "0")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.workloads import DatasetConfig, build_dataset  # noqa: E402

#: Metric snapshots land next to the benchmark results.
BENCH_METRICS_PATH = Path(__file__).parent / "BENCH_METRICS.json"


@pytest.fixture(scope="session", autouse=True)
def bench_metrics(request):
    """One metrics registry for the whole benchmark run.

    Every instrumented layer (sources, caches, engine, mobile server)
    feeds it while the experiments execute; at session end the snapshot
    is written to ``BENCH_METRICS.json`` so a benchmark run leaves a
    machine-readable record of the traffic behind its tables.
    """
    registry = obs.MetricsRegistry()
    previous = obs.get_metrics()
    obs.set_metrics(registry)
    yield registry
    obs.set_metrics(previous)
    BENCH_METRICS_PATH.write_text(json.dumps(
        {"metrics": registry.snapshot()}, indent=2, sort_keys=True,
    ) + "\n")


@pytest.fixture(scope="session")
def world_small():
    """60-leaf world: the interactive-scale dataset."""
    return build_dataset(DatasetConfig(n_leaves=60, n_ligands=120,
                                       seed=101))


@pytest.fixture(scope="session")
def world_medium():
    """150-leaf world: the scale where naive lag becomes painful."""
    return build_dataset(DatasetConfig(n_leaves=150, n_ligands=200,
                                       seed=202))


@pytest.fixture(scope="session")
def report(request):
    """Print an experiment table so it survives output capture."""
    capmanager = request.config.pluginmanager.getplugin("capturemanager")

    def emit(table) -> None:
        text = table.render() if hasattr(table, "render") else str(table)
        if capmanager is not None:
            with capmanager.global_and_fixture_disabled():
                print(f"\n{text}\n")
        else:
            print(f"\n{text}\n")

    return emit
