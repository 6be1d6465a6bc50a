"""Every plan runs on the batch engine under the default config.

For each query shape the workloads send — every ``QueryGenerator`` kind,
both mobile tap templates, a HAVING query and the clade aggregate with
the materialized stats on and off — EXPLAIN ANALYZE says
``mode=vectorized`` and the answer is ``NaiveEngine``'s, row for row and
in order, with floats to 9 places (as ``test_equivalence.py``
compares). A remote-detail projection, which
``NaiveEngine`` does not serve, is held to ``execution_mode="row"``.

The remote fetch cuts the row stream into groups of
``REMOTE_LOOKAHEAD`` rows whatever the batch size: the requests each
``fetch_all_resilient`` call carries, the round-trip counters, the
virtual time and the per-kind statuses equal the row engine's.
"""

import pytest

from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.core.query import vectorized
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.sources import (
    BreakerConfig,
    FaultSchedule,
    FetchScheduler,
    Outage,
    wrap_registry,
)
from repro.workloads import DatasetConfig, QueryGenerator, build_dataset
from repro.workloads.loadgen import _QUERY_TEMPLATES
from repro.workloads.queries import ALL_KINDS
from tests.core.test_equivalence import rounded

HAVING = ("SELECT organism, count(*), max(p_affinity) "
          "FROM bindings, proteins GROUP BY organism "
          "HAVING count_all >= 5")
REMOTE = "SELECT protein_id, ligand_id, method, go_terms FROM bindings"


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def make_dataset():
    return build_dataset(DatasetConfig(n_leaves=16, n_ligands=24, seed=5))


@pytest.fixture(scope="module")
def world():
    dataset = make_dataset()
    return dataset, dataset.drugtree(), NaiveEngine(dataset.tree,
                                                    dataset.registry)


#: Every generator kind, the two tap templates by position, HAVING.
SHAPES = (*ALL_KINDS, *(f"tap_{i}" for i in range(len(_QUERY_TEMPLATES))),
          "having")


def _query(dataset, shape):
    if shape in ALL_KINDS:
        return QueryGenerator(dataset.family, dataset.ligands,
                              seed=5).draw(shape)
    if shape == "having":
        return HAVING
    template = _QUERY_TEMPLATES[int(shape.removeprefix("tap_"))]
    return template.format(clade=dataset.family.clade_names[0],
                           threshold=6.0)


def _assert_batched_and_naive(engine, naive, query):
    assert engine.analyze(query).execution["mode"] == "vectorized"
    fast = engine.execute(query)
    slow = naive.execute(query)
    assert rounded(fast.rows) == rounded(slow.rows), query


@pytest.mark.parametrize("shape", SHAPES)
def test_default_engine_runs_every_shape_batched(world, shape):
    dataset, drugtree, naive = world
    _assert_batched_and_naive(QueryEngine(drugtree), naive,
                              _query(dataset, shape))


@pytest.mark.parametrize("materialized", [True, False])
def test_clade_aggregate_runs_batched(world, materialized):
    dataset, drugtree, naive = world
    engine = QueryEngine(drugtree, EngineConfig(
        use_materialized_aggregates=materialized))
    query = QueryGenerator(dataset.family, dataset.ligands,
                           seed=5).draw("clade_agg")
    _assert_batched_and_naive(engine, naive, query)
    if materialized:
        assert engine.analyze(query).counters["operators"] == \
            ["CladeAggregateOp"]


def test_remote_projection_runs_batched_as_row_mode_answers(world):
    dataset, drugtree, _ = world
    federation = FetchScheduler(dataset.registry)
    default = QueryEngine(drugtree, federation=federation)
    row = QueryEngine(drugtree, EngineConfig(execution_mode="row"),
                      federation=federation)
    assert default.analyze(REMOTE).execution["mode"] == "vectorized"
    got = default.execute(REMOTE)
    assert got.rows and got.rows == row.execute(REMOTE).rows
    assert any(row["method"] is not None for row in got.rows)


def _fetch_trace(mode, outage):
    """Run :data:`REMOTE` on a fresh world in *mode*: the requests of
    every ``fetch_all_resilient`` call, the round-trip counters, the
    virtual seconds spent, the rows and the statuses."""
    set_metrics(MetricsRegistry())
    dataset = make_dataset()
    registry = dataset.registry
    if outage:
        registry = wrap_registry(registry, FaultSchedule([
            Outage(0.0, 1000.0, target="pdb-sim")]))
    scheduler = FetchScheduler(
        registry, max_attempts=1,
        breaker_config=BreakerConfig(failure_threshold=3))
    requests = []
    fetch = scheduler.fetch_all_resilient

    def recording(batch, deadline=None):
        requests.append([(kind, list(keys)) for kind, keys in batch])
        return fetch(batch, deadline=deadline)

    scheduler.fetch_all_resilient = recording
    engine = QueryEngine(dataset.drugtree(), EngineConfig(
        use_semantic_cache=False, execution_mode=mode),
        federation=scheduler)
    started = scheduler.clock.now()
    result = engine.execute(REMOTE)
    return {
        "requests": requests,
        "roundtrips": get_metrics().counter_values("source.roundtrips."),
        "virtual_s": scheduler.clock.now() - started,
        "rows": result.rows,
        "statuses": result.resilience,
    }


@pytest.mark.parametrize("outage", [False, True])
def test_fetch_groups_span_batch_boundaries(monkeypatch, outage):
    """Ten-row batches against 64-row fetch groups: a fetch per batch
    would send 10-row requests and more of them."""
    row = _fetch_trace("row", outage)
    monkeypatch.setattr(vectorized, "BATCH_SIZE", 10)
    batched = _fetch_trace("vectorized", outage)
    assert len(row["rows"]) > 2 * vectorized.REMOTE_LOOKAHEAD
    assert len(row["requests"]) == -(-len(row["rows"])
                                     // vectorized.REMOTE_LOOKAHEAD)
    assert batched == row
    assert row["roundtrips"]
    assert (set(row["statuses"].values()) != {"fresh"}) == outage
