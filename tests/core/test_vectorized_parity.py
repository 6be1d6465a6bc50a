"""Differential suite: vectorized engine must match the row engine.

Every query family the workload generator can draw is executed under
both ``execution_mode="row"`` (the reference) and
``execution_mode="vectorized"`` (the default) with the semantic cache
off so the engines cannot share answers, and the two must agree
bit-for-bit on rows *and* on the accounting counters ``rows_scanned``
/ ``rows_emitted`` / ``index_probes``.

One documented exception: a bare ``LIMIT`` (no ORDER BY) lets the row
engine stop its scan at row granularity while the vectorized engine
stops at chunk granularity (the limit, then doubling up to a batch), so
``rows_scanned`` may differ there by up to one batch.  Rows still match
exactly; the LIMIT tests below pin the bound, and no gap at all when
every row passes.
"""

import dataclasses

import pytest

from repro.core import EngineConfig, QueryEngine
from repro.core.query import vectorized
from repro.errors import QueryError
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


def make_engines(dataset, federated=False):
    """One row engine and one vectorized engine over the same tree."""
    drugtree = dataset.drugtree()
    kwargs = {}
    if federated:
        kwargs["federation"] = FetchScheduler(dataset.registry)
    row = QueryEngine(
        drugtree,
        EngineConfig(use_semantic_cache=False, execution_mode="row"),
        **kwargs,
    )
    vec = QueryEngine(
        drugtree,
        EngineConfig(use_semantic_cache=False,
                     execution_mode="vectorized"),
        **kwargs,
    )
    return row, vec


def assert_parity(row_engine, vec_engine, query, counters=True):
    got_row = row_engine.execute(query)
    got_vec = vec_engine.execute(query)
    assert got_vec.rows == got_row.rows
    if counters:
        for key in COUNTER_KEYS:
            assert got_vec.counters.get(key, 0) == \
                got_row.counters.get(key, 0), (key, query)
    return got_row, got_vec


class TestWorkloadFamilies:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_generated_queries_match(self, kind, seed):
        dataset = make_dataset(seed=seed)
        row, vec = make_engines(dataset)
        generator = QueryGenerator(dataset.family, dataset.ligands,
                                   seed=seed)
        for _ in range(4):
            query = generator.draw(kind)
            got_row, got_vec = assert_parity(row, vec, query)
            assert got_vec.degraded == got_row.degraded

    def test_navigation_session_matches(self):
        dataset = make_dataset(seed=5)
        row, vec = make_engines(dataset)
        generator = QueryGenerator(dataset.family, dataset.ligands,
                                   seed=5)
        for query in generator.navigation_session(steps=8):
            assert_parity(row, vec, query)

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 1024])
    def test_batch_size_never_changes_answers(self, batch_size,
                                              monkeypatch):
        monkeypatch.setattr(vectorized, "BATCH_SIZE", batch_size)
        dataset = make_dataset(seed=9, n_leaves=12, n_ligands=16)
        row, vec = make_engines(dataset)
        generator = QueryGenerator(dataset.family, dataset.ligands,
                                   seed=9)
        for kind in ("clade_agg", "property_range", "topk", "join"):
            assert_parity(row, vec, generator.draw(kind))


class TestDtqlQueries:
    QUERIES = (
        "SELECT count(*) FROM bindings",
        "SELECT count(*), mean(p_affinity), max(p_affinity) "
        "FROM bindings WHERE potent = true",
        "SELECT organism, count(*), mean(p_affinity) FROM bindings "
        "GROUP BY organism ORDER BY organism",
        "SELECT activity_type, count(*) FROM bindings "
        "GROUP BY activity_type HAVING count_all >= 5 "
        "ORDER BY count_all DESC",
        "SELECT ligand_id, p_affinity FROM bindings "
        "WHERE p_affinity >= 6.5 ORDER BY p_affinity DESC LIMIT 10",
        "SELECT protein_id, ligand_id FROM bindings "
        "WHERE organism = 'Homo sapiens' AND logp <= 3.0",
        "SELECT mean(value_nm) FROM bindings WHERE potent = false",
    )

    @pytest.mark.parametrize("dtql", QUERIES)
    def test_dtql_parity(self, dtql):
        dataset = make_dataset(seed=23)
        row, vec = make_engines(dataset)
        assert_parity(row, vec, dtql)

    def test_provably_empty_matches(self):
        dataset = make_dataset(seed=23)
        row, vec = make_engines(dataset)
        dtql = ("SELECT ligand_id FROM bindings "
                "WHERE p_affinity > 5 AND p_affinity < 4")
        got_row, got_vec = assert_parity(row, vec, dtql)
        assert got_vec.rows == []

    def test_error_parity_on_bad_projection(self):
        dataset = make_dataset(seed=23)
        row, vec = make_engines(dataset)
        dtql = "SELECT no_such_column FROM bindings"
        with pytest.raises(QueryError) as err_row:
            row.execute(dtql)
        with pytest.raises(QueryError) as err_vec:
            vec.execute(dtql)
        assert str(err_vec.value) == str(err_row.value)


class TestLimitException:
    """Bare LIMIT is the one sanctioned rows_scanned divergence."""

    def test_rows_match_and_scan_gap_is_bounded(self, monkeypatch):
        batch_size = 64
        monkeypatch.setattr(vectorized, "BATCH_SIZE", batch_size)
        dataset = make_dataset(seed=31)
        row, vec = make_engines(dataset)
        dtql = "SELECT ligand_id, p_affinity FROM bindings LIMIT 5"
        got_row = row.execute(dtql)
        got_vec = vec.execute(dtql)
        assert got_vec.rows == got_row.rows
        assert got_vec.counters["rows_emitted"] >= \
            got_row.counters["rows_emitted"]
        gap = (got_vec.counters["rows_scanned"]
               - got_row.counters["rows_scanned"])
        assert 0 <= gap < batch_size

    def test_limit_with_no_residual_has_no_gap(self, monkeypatch):
        """The scan under a bare LIMIT reads its first chunk at the
        limit: with no residual every row passes, so it stops where the
        row engine does."""
        monkeypatch.setattr(vectorized, "BATCH_SIZE", 64)
        dataset = make_dataset(seed=31)
        row, vec = make_engines(dataset)
        got_row, got_vec = assert_parity(
            row, vec, "SELECT ligand_id, p_affinity FROM bindings LIMIT 5")
        assert got_vec.counters["rows_scanned"] == 5

    def test_ordered_limit_has_no_gap(self, monkeypatch):
        monkeypatch.setattr(vectorized, "BATCH_SIZE", 64)
        dataset = make_dataset(seed=31)
        row, vec = make_engines(dataset)
        dtql = ("SELECT ligand_id, p_affinity FROM bindings "
                "ORDER BY p_affinity DESC LIMIT 5")
        assert_parity(row, vec, dtql)


class TestFederatedParity:
    REMOTE_QUERY = "SELECT protein_id, method FROM proteins"

    def test_remote_detail_fallback_matches(self):
        dataset = make_dataset(seed=17, n_leaves=12, n_ligands=12)
        row, vec = make_engines(dataset, federated=True)
        got_row, got_vec = assert_parity(row, vec, self.REMOTE_QUERY,
                                         counters=False)
        assert got_vec.rows

    def _resilient_engine(self, mode):
        dataset = make_dataset(seed=17, n_leaves=12, n_ligands=12)
        registry = wrap_registry(dataset.registry, FaultSchedule([
            Outage(0.0, 1000.0, target="pdb-sim"),
        ]))
        scheduler = FetchScheduler(
            registry, max_attempts=1,
            breaker_config=BreakerConfig(failure_threshold=3),
        )
        return QueryEngine(
            dataset.drugtree(),
            EngineConfig(use_semantic_cache=False, execution_mode=mode),
            federation=scheduler,
        )

    def test_degraded_path_matches(self):
        row = self._resilient_engine("row")
        vec = self._resilient_engine("vectorized")
        got_row = row.execute(self.REMOTE_QUERY)
        got_vec = vec.execute(self.REMOTE_QUERY)
        assert got_vec.rows == got_row.rows
        assert got_vec.resilience == got_row.resilience
        assert got_vec.degraded == got_row.degraded
        assert got_vec.degraded is True


class TestMutationParity:
    def test_inserts_visible_to_both(self):
        dataset = make_dataset(seed=41, n_leaves=12, n_ligands=16)
        drugtree = dataset.drugtree()
        row = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False, execution_mode="row"))
        vec = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False, execution_mode="vectorized"))
        table = drugtree.tables["bindings"]
        table.column_store()  # materialize before the insert
        first_row = next(iter(table.scan()))[1]
        template = table.schema.row_as_dict(first_row)
        template["ligand_id"] = "lig_parity"
        template["p_affinity"] = 9.9
        table.insert(template)
        dtql = ("SELECT ligand_id, p_affinity FROM bindings "
                "WHERE p_affinity >= 9.9")
        assert_parity(row, vec, dtql)


class TestDiagnostics:
    def test_vectorized_analyze_reports_batches(self):
        dataset = make_dataset(seed=23)
        _, vec = make_engines(dataset)
        report = vec.analyze(
            "SELECT count(*) FROM bindings WHERE potent = true")
        assert report.execution["mode"] == "vectorized"
        assert report.execution["batches"] >= 1
        assert report.execution["batch_size"] == 1024
        assert "-- execution: mode=vectorized" in report.render()

    def test_row_analyze_has_no_batch_keys(self):
        dataset = make_dataset(seed=23)
        row, _ = make_engines(dataset)
        report = row.analyze(
            "SELECT count(*) FROM bindings WHERE potent = true")
        assert report.execution == {"mode": "row"}
        assert "batches" not in report.execution
        assert "batches_emitted" not in report.counters

    def test_row_mode_counters_have_no_batch_keys(self):
        dataset = make_dataset(seed=23)
        row, vec = make_engines(dataset)
        got = row.execute("SELECT count(*) FROM bindings")
        assert "batches_emitted" not in got.counters
        got = vec.execute("SELECT count(*) FROM bindings")
        assert got.counters["batches_emitted"] >= 1
        assert got.counters["rows_per_batch"] > 0

    def test_config_validation(self):
        with pytest.raises(QueryError, match="execution mode"):
            EngineConfig(execution_mode="simd")
        with pytest.raises(QueryError, match="execution mode"):
            EngineConfig(execution_mode="adaptive")
        assert EngineConfig().execution_mode == "vectorized"
        assert len(dataclasses.fields(EngineConfig)) == 8

    def test_default_mode_honours_the_batch_size(self, monkeypatch):
        """``BATCH_SIZE`` is the batch size: a 16-row batch over a
        wider scan yields many batches, and the same answers."""
        monkeypatch.setattr(vectorized, "BATCH_SIZE", 16)
        dataset = make_dataset(seed=13, n_leaves=20, n_ligands=30)
        drugtree = dataset.drugtree()
        row = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False, execution_mode="row"))
        default = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False))
        dtql = ("SELECT organism, count(*), mean(p_affinity), "
                "min(logp), max(logp) FROM bindings "
                "GROUP BY organism ORDER BY organism")
        report = default.analyze(dtql)
        assert report.counters["rows_scanned"] > 16
        assert report.execution["batch_size"] == 16
        assert report.execution["batches"] > 1
        assert default.execute(dtql).rows == row.execute(dtql).rows

    def test_scan_under_aggregate_is_timed(self):
        """Every scan is instrumented: EXPLAIN ANALYZE charges the scan
        beneath an aggregate its own time, loop and rows."""
        dataset = make_dataset(seed=23)
        engine = QueryEngine(dataset.drugtree(),
                             EngineConfig(use_semantic_cache=False))
        dtql = "SELECT count(*) FROM bindings WHERE potent = true"
        report = engine.analyze(dtql)
        aggregate = report.operators
        (scan,) = aggregate.children
        assert "SeqScan" in scan.label
        assert scan.wall_s > 0
        assert scan.loops == 1
        assert scan.rows_out == engine.execute(dtql).scalar()
        assert aggregate.wall_s >= scan.wall_s


class TestKeySetScanWithoutIndex:
    """The planner only picks a key-set scan over an index; driven
    directly, both operators fall back to a membership-filtered scan."""

    def test_operators_agree(self, monkeypatch):
        from repro.core.query.ast import Comparison
        from repro.core.query.logical import LogicalScan
        from repro.core.query.physical import ExecCounters, ScanOp
        from repro.core.query.vectorized import VecScanOp

        table = make_dataset(seed=23).drugtree().tables["bindings"]
        assert table.index_on("activity_type") is None
        node = LogicalScan(
            "bindings", "key_set", access_column="activity_type",
            key_set=frozenset({"Ki", "IC50"}),
            residual=(Comparison("p_affinity", ">=", 6.0),))
        row_counters, vec_counters = ExecCounters(), ExecCounters()
        expected = list(ScanOp(row_counters, table, node).rows())
        monkeypatch.setattr(vectorized, "BATCH_SIZE", 16)
        got = list(VecScanOp(vec_counters, table, node).rows())
        assert expected and got == expected
        for key in COUNTER_KEYS:
            assert getattr(vec_counters, key) == getattr(row_counters, key)
        assert vec_counters.rows_scanned == table.row_count


class TestCladeAggregate:
    """The materialized clade aggregate runs on the batch engine under
    the default mode, as one one-row batch, with the row engine's
    answers and counters; the row engine drains it as one row."""

    def test_clade_fast_path_runs_batched(self):
        dataset = make_dataset(seed=17)
        drugtree = dataset.drugtree()
        row = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False, execution_mode="row"))
        default = QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False))
        query = QueryGenerator(dataset.family, dataset.ligands,
                               seed=17).draw("clade_agg")
        got_row, _ = assert_parity(row, default, query)
        assert got_row.counters["operators"] == ["CladeAggregateOp"]
        assert "batches_emitted" not in got_row.counters
        report = default.analyze(query)
        assert report.execution["mode"] == "vectorized"
        assert report.execution["batches"] == 1
        assert report.counters["rows_per_batch"] == 1.0
