"""E17 — admission-controlled serving vs naive FIFO under overload.

PR 10 puts a multi-tenant frontend in front of the mobile server: an
open-loop load generator, weighted fair queues, admission control, and
a shared cache front, all in virtual time. This experiment pins the two
claims that justify the frontend:

* **Goodput under overload**: the same zipf-skewed two-tenant traffic
  interval is ramped from under capacity to ~3x capacity and replayed
  against (a) a naive unbounded FIFO with no admission and (b) WFQ with
  admission control. At overload the FIFO's queue grows without bound,
  so its p99 blows through the SLO and its goodput (completions within
  SLO per offered request) collapses; admission sheds the excess at the
  door (~zero virtual cost, typed retry-after) and must keep p99
  bounded and goodput strictly higher.
* **Tenant isolation**: within the admission-controlled run, the
  polite tenant's p99 stays inside the SLO at every offered load even
  though the flooding tenant is the one pushing the system over.

Everything runs in virtual time from fixed seeds, so the numbers are
bit-deterministic run to run.
"""

from __future__ import annotations

from repro.mobile.server import DrugTreeServer, ServerConfig
from repro.obs import MetricsRegistry, set_metrics
from repro.serving import (
    AdmissionConfig,
    FrontendConfig,
    ServingFrontend,
    TenantConfig,
)
from repro.sources.scheduler import FetchScheduler
from repro.workloads import (
    DatasetConfig,
    LoadConfig,
    TenantLoad,
    TextTable,
    build_dataset,
    generate_load,
)

N_LEAVES = 24
N_LIGANDS = 30
WORLD_SEED = 501
LOAD_SEED = 7
DURATION_S = 12.0
WORKERS = 2
SLO_S = 0.5
#: Offered flood rates swept, requests per virtual second; ~2 workers
#: at ~25ms-60ms a request saturate around the middle of the ramp.
FLOOD_RPS = (20.0, 80.0, 160.0)
CALM_RPS = 8.0


def _world():
    dataset = build_dataset(DatasetConfig(
        n_leaves=N_LEAVES, n_ligands=N_LIGANDS, seed=WORLD_SEED))
    server = DrugTreeServer(
        dataset.drugtree(),
        # Delta framing is per-session state; serving prefers shared
        # full renders. The tap deadline ties federation work to the
        # same budget the SLO measures.
        ServerConfig(use_delta=False, tap_deadline_s=SLO_S),
        federation=FetchScheduler(dataset.registry))
    return dataset, server


def _frontend_config(mode: str) -> FrontendConfig:
    if mode == "naive":
        return FrontendConfig(workers=WORKERS, policy="fifo",
                              admission=None, slo_s=SLO_S,
                              use_cache=False)
    return FrontendConfig(
        workers=WORKERS, policy="wfq",
        # headroom < 1: admit only with margin for service-time
        # variance, so estimate noise surfaces as door sheds rather
        # than SLO misses.
        admission=AdmissionConfig(slo_s=SLO_S, headroom=0.5),
        slo_s=SLO_S, use_cache=False)


def run_point(mode: str, flood_rps: float,
              duration_s: float = DURATION_S) -> dict:
    """One (mode, offered-load) cell of the ramp."""
    set_metrics(MetricsRegistry())
    dataset, server = _world()
    requests = generate_load(
        dataset.family.clade_names, dataset.family.protein_ids,
        LoadConfig(tenants=(TenantLoad("flood", flood_rps),
                            TenantLoad("calm", CALM_RPS)),
                   duration_s=duration_s, think_mean_s=0.5,
                   seed=LOAD_SEED))
    frontend = ServingFrontend(
        server, dataset.clock, _frontend_config(mode),
        tenants=[TenantConfig("flood"), TenantConfig("calm")])
    report = frontend.run(requests)
    calm = report.tenants["calm"]
    return {
        "mode": mode,
        "flood_rps": flood_rps,
        "offered": report.offered,
        "completed": report.completed,
        "shed": report.shed,
        "shed_rate": round(report.shed_rate, 4),
        "goodput": round(report.goodput, 4),
        "goodput_rps": round(report.goodput_rps, 2),
        "p50_s": round(max(t.p50_s for t in
                           report.tenants.values()), 4),
        "p99_s": round(max(t.p99_s for t in
                           report.tenants.values()), 4),
        "p999_s": round(max(t.p999_s for t in
                            report.tenants.values()), 4),
        "calm_p99_s": round(calm.p99_s, 4),
        "calm_goodput": round(calm.goodput, 4),
    }


def collect_metrics(flood_rps: tuple = FLOOD_RPS,
                    duration_s: float = DURATION_S) -> dict:
    """E17 numbers as one JSON-ready dict: the naive-vs-admission
    ramp plus headline goodput/p99 at the highest offered load."""
    ramp = []
    for rps in flood_rps:
        ramp.append({
            "naive": run_point("naive", rps, duration_s=duration_s),
            "admission": run_point("admission", rps,
                                   duration_s=duration_s),
        })
    peak = ramp[-1]
    return {
        "slo_s": SLO_S,
        "workers": WORKERS,
        "ramp": ramp,
        "headline": {
            "peak_offered_rps": flood_rps[-1] + CALM_RPS,
            "naive_p99_s": peak["naive"]["p99_s"],
            "admission_p99_s": peak["admission"]["p99_s"],
            "naive_goodput": peak["naive"]["goodput"],
            "admission_goodput": peak["admission"]["goodput"],
            "admission_shed_rate": peak["admission"]["shed_rate"],
        },
    }


def test_e17_admission_beats_naive_fifo_under_overload(benchmark,
                                                       report):
    def sweep():
        return collect_metrics()

    metrics = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["offered rps", "mode", "goodput", "goodput rps", "shed",
         "p99 s", "p99.9 s", "calm p99 s"],
        title=(f"E17  {WORKERS} workers, SLO {SLO_S:.1f}s, "
               f"{DURATION_S:.0f}s virtual interval, zipf targets, "
               "two tenants (flood + calm)"),
    )
    for point in metrics["ramp"]:
        for mode in ("naive", "admission"):
            cell = point[mode]
            table.add_row(
                f"{cell['flood_rps'] + CALM_RPS:.0f}", mode,
                f"{cell['goodput']:.3f}",
                f"{cell['goodput_rps']:.1f}",
                f"{cell['shed_rate']:.3f}",
                f"{cell['p99_s']:.3f}", f"{cell['p999_s']:.3f}",
                f"{cell['calm_p99_s']:.3f}",
            )
    report(table)

    under = metrics["ramp"][0]
    peak = metrics["ramp"][-1]
    # Under capacity the two modes agree: nothing shed, everyone in SLO.
    assert under["naive"]["goodput"] > 0.95
    assert under["admission"]["goodput"] > 0.95
    # At overload the naive FIFO queues without bound: p99 blows the
    # SLO and goodput collapses below the admission-controlled run.
    assert peak["naive"]["p99_s"] > SLO_S
    assert peak["admission"]["p99_s"] <= SLO_S
    assert peak["admission"]["goodput"] > peak["naive"]["goodput"]
    assert peak["admission"]["goodput_rps"] > \
        peak["naive"]["goodput_rps"]
    # Admission sheds the excess instead of serving it late…
    assert peak["admission"]["shed_rate"] > 0
    # …and the polite tenant rides through the whole ramp inside SLO.
    for point in metrics["ramp"]:
        assert point["admission"]["calm_p99_s"] <= SLO_S
        assert point["admission"]["calm_goodput"] >= 0.95
