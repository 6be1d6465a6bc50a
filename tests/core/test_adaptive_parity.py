"""Differential suite: the zero-knob default must match the row engine.

``EngineConfig()`` leaves ``execution_mode`` alone, so every query runs
on the batch engine (:func:`repro.core.query.adaptive.choose_engine`
answers vectorized for every plan). That may never change an answer:
every workload family runs under the row reference and the default
(semantic cache off) and both must agree bit-for-bit on rows and on the
accounting counters ``rows_scanned`` / ``rows_emitted`` /
``index_probes``.

The suite also pins the choice itself, and that inserts reach the
estimates at once. ``test_vectorized_parity.py`` holds the batch-size sweeps, the
bare-LIMIT exception and the diagnostics of the explicit modes.
"""

import pytest

from repro.core import EngineConfig, QueryEngine
from repro.core.query import parse_query
from repro.core.query.ast import Comparison
from repro.core.query import vectorized
from repro.core.query.adaptive import choose_engine
from repro.obs import MetricsRegistry, set_metrics
from repro.sources import (
    BreakerConfig,
    FaultSchedule,
    FetchScheduler,
    Outage,
    wrap_registry,
)
from repro.workloads import DatasetConfig, QueryGenerator, build_dataset
from repro.workloads.queries import ALL_KINDS

COUNTER_KEYS = ("rows_scanned", "rows_emitted", "index_probes")


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def make_dataset(seed=17, n_leaves=16, n_ligands=24):
    return build_dataset(DatasetConfig(n_leaves=n_leaves,
                                       n_ligands=n_ligands, seed=seed))


def make_engine(drugtree, mode=None, federation=None, **knobs):
    """``mode=None`` builds the default engine: no mode is passed."""
    if mode is not None:
        knobs["execution_mode"] = mode
    kwargs = {"federation": federation} if federation else {}
    return QueryEngine(
        drugtree, EngineConfig(use_semantic_cache=False, **knobs),
        **kwargs)


def make_pair(dataset, federated=False, **knobs):
    """The row reference and the default engine over one DrugTree."""
    drugtree = dataset.drugtree()
    federation = (FetchScheduler(dataset.registry)
                  if federated else None)
    return (make_engine(drugtree, "row", federation=federation),
            make_engine(drugtree, federation=federation, **knobs))


def assert_parity(engines, query, counters=True):
    row, default = engines
    got_row = row.execute(query)
    got_default = default.execute(query)
    assert got_default.rows == got_row.rows, query
    if counters:
        for key in COUNTER_KEYS:
            assert got_default.counters.get(key, 0) == \
                got_row.counters.get(key, 0), (key, query)
    return got_row, got_default


class TestWorkloadFamilies:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_generated_queries_match(self, kind, seed):
        dataset = make_dataset(seed=seed)
        engines = make_pair(dataset)
        generator = QueryGenerator(dataset.family, dataset.ligands,
                                   seed=seed)
        for _ in range(3):
            query = generator.draw(kind)
            got_row, got_default = assert_parity(engines, query)
            assert got_default.degraded == got_row.degraded


class TestDtqlParity:
    QUERIES = (
        "SELECT count(*) FROM bindings",
        "SELECT count(*), mean(p_affinity), max(p_affinity) "
        "FROM bindings WHERE potent = true",
        "SELECT organism, count(*), mean(p_affinity) FROM bindings "
        "GROUP BY organism ORDER BY organism",
        "SELECT ligand_id, p_affinity FROM bindings "
        "WHERE p_affinity >= 6.5 ORDER BY p_affinity DESC LIMIT 10",
        "SELECT protein_id, ligand_id FROM bindings "
        "WHERE organism = 'Homo sapiens' AND logp <= 3.0",
    )

    @pytest.mark.parametrize("batch_size", (1, 2, 8))
    @pytest.mark.parametrize("dtql", QUERIES)
    def test_dtql_parity(self, dtql, batch_size, monkeypatch):
        """Tiny batches put a batch boundary inside every group and
        fold: float aggregates must not drift with the batch size."""
        monkeypatch.setattr(vectorized, "BATCH_SIZE", batch_size)
        dataset = make_dataset(seed=23)
        engines = make_pair(dataset)
        assert_parity(engines, dtql)


class TestFederatedParity:
    REMOTE_QUERY = "SELECT protein_id, method FROM proteins"

    def test_remote_detail_fallback_matches(self):
        dataset = make_dataset(seed=17, n_leaves=12, n_ligands=12)
        engines = make_pair(dataset, federated=True)
        _, got_default = assert_parity(engines, self.REMOTE_QUERY,
                                       counters=False)
        assert got_default.rows

    def _resilient_engine(self, mode):
        dataset = make_dataset(seed=17, n_leaves=12, n_ligands=12)
        registry = wrap_registry(dataset.registry, FaultSchedule([
            Outage(0.0, 1000.0, target="pdb-sim"),
        ]))
        scheduler = FetchScheduler(
            registry, max_attempts=1,
            breaker_config=BreakerConfig(failure_threshold=3),
        )
        return make_engine(dataset.drugtree(), mode,
                           federation=scheduler)

    def test_degraded_path_matches(self):
        got_row = self._resilient_engine("row").execute(
            self.REMOTE_QUERY)
        got_default = self._resilient_engine(None).execute(
            self.REMOTE_QUERY)
        assert got_default.rows == got_row.rows
        assert got_default.resilience == got_row.resilience
        assert got_default.degraded == got_row.degraded
        assert got_default.degraded is True


class TestAdaptiveChoice:
    def test_wide_scan_goes_vectorized(self):
        dataset = make_dataset(seed=23, n_leaves=20, n_ligands=30)
        engine = make_engine(dataset.drugtree())
        report = engine.analyze(
            "SELECT count(*) FROM bindings WHERE potent = true")
        assert set(report.execution) == {
            "mode", "batches", "rows_per_batch", "batch_size"}
        assert report.execution["mode"] == "vectorized"
        rendered = report.render()
        assert "-- execution: mode=vectorized, batches=" in rendered

    def test_explicit_modes_have_no_adaptive_keys(self):
        dataset = make_dataset(seed=23)
        row = make_engine(dataset.drugtree(), "row")
        report = row.analyze("SELECT count(*) FROM bindings")
        assert report.execution == {"mode": "row"}

    def test_choose_engine_unit(self):
        """Vectorized for every plan: each generated kind (the
        materialized clade aggregate included), a join under an
        aggregate, and an index point probe."""
        dataset = make_dataset(seed=23, n_leaves=20, n_ligands=30)
        drugtree = dataset.drugtree()
        generator = QueryGenerator(dataset.family, dataset.ligands,
                                   seed=23)
        planner = make_engine(drugtree).planner

        def choice(query):
            if isinstance(query, str):
                query = parse_query(query)
            return choose_engine(planner.plan(query).logical)

        ligand = next(iter(drugtree.tables["ligands"].scan()))[1][0]
        queries = [generator.draw(kind) for kind in ALL_KINDS] + [
            "SELECT count(*) FROM bindings, proteins "
            "WHERE organism = 'Homo sapiens'",
            f"SELECT * FROM bindings WHERE ligand_id = '{ligand}'",
        ]
        assert [choice(query) for query in queries] == \
            ["vectorized"] * len(queries)


class TestMutations:
    def test_inserts_reach_the_estimates_and_both_engines(self):
        dataset = make_dataset(seed=41, n_leaves=12, n_ligands=16)
        drugtree = dataset.drugtree()
        engines = make_pair(dataset)
        _, default = engines
        dtql = ("SELECT ligand_id, p_affinity FROM bindings "
                "WHERE p_affinity >= 6.0")
        assert_parity(engines, dtql)
        count_dtql = ("SELECT count(*) FROM bindings "
                      "WHERE p_affinity >= 9.0")
        base_count = default.execute(count_dtql).rows[0]["count_all"]

        table = drugtree.tables["bindings"]
        template = table.schema.row_as_dict(next(iter(table.scan()))[1])
        inserted = 17
        for i in range(inserted):
            fresh = dict(template)
            fresh["ligand_id"] = f"lig_mut_{i}"
            fresh["p_affinity"] = 9.0 + i / 100.0
            table.insert(fresh)

        # The planner's next estimate counts the new rows: it reads the
        # index, so there is nothing to re-collect...
        assert default.planner.estimator.scan_rows(
            "bindings", (Comparison("p_affinity", ">=", 9.0),)) \
            == base_count + inserted
        # ...and both engines still agree on the mutated data.
        assert_parity(engines, dtql)
        got = default.execute(count_dtql)
        assert got.rows[0]["count_all"] == base_count + inserted
