"""E12 — resilient federation under seeded chaos (extension).

The paper's mobile story assumes the federation answers; real source
federations have outages, flaps, and error bursts. This experiment
replays an identical seeded fault scenario (the ``cascade`` schedule:
rolling outages across all three sources with trailing error bursts)
against the same mobile tap workload under two configurations:

- ``retry-only``  — the PR-2 scheduler: retries with backoff, no
                    breakers, no deadline. Every tap into a dark source
                    re-pays the full retry ladder and then fails.
- ``resilient``   — circuit breakers per (source, kind), a per-tap
                    virtual deadline, and graceful degradation
                    (overlay fallback cards, clamped LOD, partial
                    results flagged per kind).

A tap counts as *answered within deadline* when it returns without an
exception and its virtual latency fits the tap budget. Expected shape:
the resilient configuration answers >= 95% of taps within the deadline
(some flagged degraded/stale — honestly, never silently); the
retry-only baseline stalls past the budget or fails outright on >= 30%.

A second test pins the zero-overhead contract: with chaos off, the
resilience machinery changes neither answers nor virtual timing.
"""

from __future__ import annotations

from repro.faults import FaultSchedule, scenario_schedule
from repro.obs import MetricsRegistry, set_metrics
from repro.scenarios import run_tap_session
from repro.sources import BreakerConfig
from repro.workloads import DatasetConfig, TextTable, build_dataset

N_LEAVES = 24
N_LIGANDS = 30
WORLD_SEED = 402
CHAOS_SEED = 99
SCENARIO = "cascade"
N_TAPS = 30
THINK_S = 3.0
DEADLINE_S = 1.5


def run_session(scenario: str | None, resilient: bool) -> dict:
    """Replay the standard tap loop; returns outcome tallies.

    A tap that returned but took longer than the budget is tallied as
    ``stalled`` instead of under its status.
    """
    set_metrics(MetricsRegistry())
    dataset = build_dataset(DatasetConfig(
        n_leaves=N_LEAVES, n_ligands=N_LIGANDS, seed=WORLD_SEED))
    run = run_tap_session(
        dataset,
        (scenario_schedule(scenario, seed=CHAOS_SEED)
         if scenario is not None else FaultSchedule()),
        taps=N_TAPS, think_s=THINK_S,
        deadline_s=DEADLINE_S if resilient else None,
        breaker_config=(BreakerConfig(failure_threshold=3,
                                      reset_timeout_s=10.0)
                        if resilient else None),
    )
    tally = {"fresh": 0, "degraded": 0, "stale": 0,
             "stalled": 0, "failed": 0}
    for outcome, elapsed_s in run.taps:
        stalled = outcome != "failed" and elapsed_s > DEADLINE_S
        tally["stalled" if stalled else outcome] += 1
    return {
        "tally": tally,
        "answered": N_TAPS - tally["stalled"] - tally["failed"],
        "virtual_s": run.virtual_s,
        "breaker_trips": run.breaker_trips,
        "breaker_skips": run.payload["scheduler"]["breaker_skips"],
        "deadline_cancelled":
            run.payload["scheduler"]["deadline_cancelled"],
    }


def test_e12_resilient_vs_retry_only(benchmark, report):
    def sweep():
        return (run_session(SCENARIO, resilient=False),
                run_session(SCENARIO, resilient=True))

    baseline, resilient = benchmark.pedantic(sweep, rounds=1,
                                             iterations=1)
    table = TextTable(
        ["configuration", "within deadline", "degraded/stale",
         "stalled", "failed", "breaker trips", "skips"],
        title=(f"E12  {N_TAPS} taps, scenario {SCENARIO!r} "
               f"(chaos seed {CHAOS_SEED}), "
               f"deadline {DEADLINE_S:.1f}s virtual"),
    )
    for label, run in (("retry-only", baseline),
                       ("resilient", resilient)):
        tally = run["tally"]
        table.add_row(
            label, f"{run['answered']}/{N_TAPS}",
            tally["degraded"] + tally["stale"],
            tally["stalled"], tally["failed"],
            run["breaker_trips"], run["breaker_skips"],
        )
    report(table)

    # The acceptance bar: breakers + deadlines + degradation keep the
    # phone responsive through the cascade...
    assert resilient["answered"] / N_TAPS >= 0.95
    # ...which some answers honestly flag as degraded or stale.
    assert (resilient["tally"]["degraded"]
            + resilient["tally"]["stale"]) > 0
    # The retry-only baseline stalls past the tap budget or fails
    # outright on a large fraction of the same workload.
    unanswered = baseline["tally"]["stalled"] + baseline["tally"]["failed"]
    assert unanswered / N_TAPS >= 0.30
    # Breakers did real work: short-circuits never paid a round-trip.
    assert resilient["breaker_trips"] >= 1
    assert resilient["breaker_skips"] >= 1


def test_e12_chaos_off_is_zero_overhead():
    """With no faults scheduled, the resilience machinery must change
    neither the answers nor the virtual timing of the session."""
    plain = run_session(None, resilient=False)
    calm_resilient = run_session("calm", resilient=True)
    assert plain["tally"]["failed"] == 0
    assert plain["tally"]["fresh"] == N_TAPS
    assert calm_resilient["tally"]["fresh"] == N_TAPS
    assert calm_resilient["breaker_trips"] == 0
    assert calm_resilient["deadline_cancelled"] == 0
    assert calm_resilient["virtual_s"] == plain["virtual_s"]
