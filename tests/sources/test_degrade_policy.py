"""The federation's one degrade policy, asserted at every caller.

``FetchScheduler.degrades(deadline)`` — a deadline was given or
breakers are configured — is the only place that decides whether a
dark source raises or comes back flagged. The same four-cell table is
checked at the scheduler, through ``QueryEngine.execute`` and through
``DrugTreeServer.protein_details``.
"""

import pytest

from repro.core import QueryEngine
from repro.errors import SourceUnavailableError
from repro.mobile import DrugTreeServer, ServerConfig
from repro.obs import MetricsRegistry, set_metrics
from repro.sources import (
    BreakerConfig,
    Deadline,
    FaultSchedule,
    FetchScheduler,
    Outage,
    wrap_registry,
)
from repro.sources.protein import KIND_PROTEIN
from repro.workloads import DatasetConfig, build_dataset

#: (breakers configured, deadline given) -> degrades
POLICY = [
    (False, False, False),
    (False, True, True),
    (True, False, True),
    (True, True, True),
]
policy_table = pytest.mark.parametrize("breakers, deadline, degrades",
                                       POLICY)


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def dark_world(breakers):
    """A world whose protein source is dark, and a scheduler over it."""
    dataset = build_dataset(DatasetConfig(n_leaves=12, n_ligands=12,
                                          seed=17))
    registry = wrap_registry(dataset.registry, FaultSchedule([
        Outage(0.0, 10_000.0, target=frozenset({"pdb-sim", "go-sim"})),
    ]))
    scheduler = FetchScheduler(
        registry, max_attempts=1,
        breaker_config=(BreakerConfig(failure_threshold=100)
                        if breakers else None),
    )
    return dataset, scheduler


@policy_table
def test_scheduler(breakers, deadline, degrades):
    dataset, scheduler = dark_world(breakers)
    budget = Deadline(dataset.clock, 5.0) if deadline else None
    assert scheduler.degrades(budget) is degrades
    requests = [(KIND_PROTEIN, dataset.family.protein_ids[:3])]
    if degrades:
        outcome = scheduler.fetch_all_resilient(requests,
                                                deadline=budget)
        assert outcome.statuses == {KIND_PROTEIN: "missing"}
        assert outcome.records == {KIND_PROTEIN: {}}
        assert "pdb-sim" in outcome.errors[KIND_PROTEIN]
        return
    with pytest.raises(SourceUnavailableError) as plain:
        scheduler.fetch_all(requests)
    with pytest.raises(SourceUnavailableError) as resilient:
        scheduler.fetch_all_resilient(requests)
    assert str(resilient.value) == str(plain.value)
    assert scheduler.stats.degraded_batches == 0


@policy_table
def test_query_engine(breakers, deadline, degrades):
    dataset, scheduler = dark_world(breakers)
    engine = QueryEngine(dataset.drugtree(), federation=scheduler)
    query = "SELECT protein_id, method FROM proteins"
    budget = 5.0 if deadline else None
    if not degrades:
        with pytest.raises(SourceUnavailableError, match="pdb-sim"):
            engine.execute(query, deadline=budget)
        return
    result = engine.execute(query, deadline=budget)
    assert result.degraded
    assert result.resilience == {KIND_PROTEIN: "missing"}
    assert all(row["method"] is None for row in result.rows)


@policy_table
def test_mobile_protein_details(breakers, deadline, degrades):
    dataset, scheduler = dark_world(breakers)
    server = DrugTreeServer(
        dataset.drugtree(),
        ServerConfig(prefetch_details=False,
                     tap_deadline_s=5.0 if deadline else None),
        federation=scheduler,
    )
    session_id, _ = server.open_session()
    protein_id = dataset.family.protein_ids[0]
    if not degrades:
        with pytest.raises(SourceUnavailableError, match="pdb-sim"):
            server.protein_details(session_id, protein_id)
        return
    response = server.protein_details(session_id, protein_id)
    assert response.status == "stale"
    details = response.message.payload()["details"]
    assert details["source"] == "local-overlay"
