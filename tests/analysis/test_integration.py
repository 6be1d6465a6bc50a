"""End-to-end behaviour of the semantic analyzer inside the engine,
EXPLAIN ANALYZE, and the mobile server."""

import pytest

from repro.analysis import dtql as dtql_module
from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.core.query import parser as parser_module
from repro.errors import MobileError, ParseError, QueryError
from repro.mobile import DrugTreeServer, ServerConfig
from repro.obs import MetricsRegistry, get_metrics
from repro.sources import FetchScheduler
from repro.workloads import DatasetConfig, build_dataset

CONTRADICTION = ("SELECT * FROM bindings WHERE value_nm < 10 "
                 "AND value_nm > 100")


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DatasetConfig(n_leaves=16, n_ligands=30, seed=9))


@pytest.fixture(scope="module")
def drugtree(dataset):
    return dataset.drugtree()


class TestShortCircuit:
    def test_zero_source_roundtrips(self, dataset, drugtree):
        """The acceptance criterion: a provably-contradictory query
        executes without a single source round-trip."""
        engine = QueryEngine(drugtree)
        before = dataset.registry.combined_stats()["roundtrips"]
        result = engine.execute(CONTRADICTION)
        after = dataset.registry.combined_stats()["roundtrips"]
        assert result.rows == []
        assert after == before
        assert result.counters["rows_scanned"] == 0
        assert result.counters["index_probes"] == 0
        assert result.plan is None  # never planned

    def test_short_circuit_counter_increments(self, drugtree):
        metrics = MetricsRegistry()
        engine = QueryEngine(drugtree, metrics=metrics)
        engine.execute(CONTRADICTION)
        engine.execute("SELECT count(*) FROM bindings")
        assert metrics.counter(
            "query.analysis_short_circuit").value == 1

    def test_similarity_filter_not_resolved(self, drugtree):
        """An unsatisfiable SIMILAR TO query skips fingerprint
        resolution entirely — that work happens before planning, so
        only the analyzer can save it."""
        engine = QueryEngine(drugtree)
        contradictory = ("SELECT ligand_id, smiles, p_affinity "
                         "WHERE value_nm < 1 AND value_nm > 2 "
                         "SIMILAR TO 'CCO' >= 0.4")
        result = engine.execute(contradictory)
        assert result.rows == []
        assert result.similarity_candidates == 0
        off = QueryEngine(drugtree, EngineConfig(
            use_semantic_analysis=False, use_semantic_cache=False))
        baseline = off.execute(contradictory)
        assert baseline.rows == []
        assert baseline.similarity_candidates > 0

    def test_scalar_aggregate_keeps_sql_semantics(self, drugtree):
        engine = QueryEngine(drugtree)
        result = engine.execute(
            "SELECT count(*), mean(p_affinity) FROM bindings "
            "WHERE value_nm < 1 AND value_nm > 2")
        assert result.rows == [{"count_all": 0,
                                "mean_p_affinity": None}]

    def test_matches_naive_engine_on_contradiction(self, dataset,
                                                   drugtree):
        engine = QueryEngine(drugtree)
        naive = NaiveEngine(dataset.tree, dataset.registry)
        dtql = ("SELECT count(*) FROM bindings "
                "WHERE p_affinity > 9 AND p_affinity < 2")
        assert engine.execute(dtql).rows == naive.execute(dtql).rows

    def test_analysis_off_still_answers_empty(self, drugtree):
        off = QueryEngine(drugtree, EngineConfig(
            use_semantic_analysis=False))
        result = off.execute(CONTRADICTION)
        assert result.rows == []
        assert result.plan is not None  # planned and scanned

    @pytest.mark.parametrize("mode", ["row", "vectorized"])
    def test_analysis_off_aggregates_keep_sql_semantics(
            self, dataset, drugtree, mode):
        """Planned and scanned, a contradiction still aggregates to the
        SQL empty shape: both aggregate operators emit it."""
        off = QueryEngine(drugtree, EngineConfig(
            use_semantic_analysis=False, use_semantic_cache=False,
            execution_mode=mode))
        naive = NaiveEngine(dataset.tree, dataset.registry)
        for dtql in ("SELECT count(*), mean(p_affinity) FROM bindings "
                     "WHERE p_affinity > 9 AND p_affinity < 2",
                     "SELECT count(*) FROM bindings WHERE organism = 'a' "
                     "AND organism = 'b'"):
            rows = off.execute(dtql).rows
            assert rows == naive.execute(dtql).rows
            assert rows[0]["count_all"] == 0

    def test_rejects_semantic_errors(self, drugtree):
        engine = QueryEngine(drugtree)
        with pytest.raises(QueryError,
                           match="semantic analysis rejected"):
            engine.execute("SELECT * WHERE organism = 5")

    def test_analysis_off_does_not_reject(self, drugtree):
        off = QueryEngine(drugtree, EngineConfig(
            use_semantic_analysis=False, use_semantic_cache=False))
        # Type-mismatched equality silently matches nothing, as before.
        assert off.execute("SELECT * WHERE organism = 5").rows == []

    def test_explain_raises_what_execute_raises(self, drugtree):
        engine = QueryEngine(drugtree)
        dtql = "SELECT * WHERE organism = 5"
        with pytest.raises(QueryError) as executed:
            engine.execute(dtql)
        with pytest.raises(QueryError) as explained:
            engine.explain(dtql)
        assert type(explained.value) is type(executed.value)
        assert str(explained.value) == str(executed.value)
        assert explained.value.diagnostics == executed.value.diagnostics

    def test_explain_of_provably_empty_prints_the_contradiction(
            self, drugtree):
        text = QueryEngine(drugtree).explain(CONTRADICTION)
        assert text == ("-- analysis: provably empty: value_nm < 10 "
                        "AND value_nm > 100")

    def test_check_method_exposes_report(self, drugtree):
        engine = QueryEngine(drugtree)
        report = engine.check(CONTRADICTION)
        assert report.provably_empty
        assert report.ok


class TestExplainAnalyze:
    def test_trailer_names_the_pair(self, drugtree):
        engine = QueryEngine(drugtree)
        rendered = engine.analyze(CONTRADICTION).render()
        assert ("-- analysis: provably empty: value_nm < 10 "
                "AND value_nm > 100") in rendered
        assert "AnalysisEmpty" in rendered
        assert "source round-trips: none recorded" in rendered

    def test_report_fields(self, drugtree):
        engine = QueryEngine(drugtree)
        report = engine.analyze(CONTRADICTION)
        assert report.rows == 0
        assert report.counters["rows_scanned"] == 0
        assert report.estimated_rows == 0.0
        assert report.as_dict()["analysis"]

    def test_advisories_ride_along_on_normal_queries(self, drugtree):
        engine = QueryEngine(drugtree)
        report = engine.analyze(
            "SELECT ligand_id FROM bindings WHERE organism = 'x'")
        assert any("DTQL301" in line for line in report.analysis)
        assert "-- analysis: DTQL301" in report.render()

    def test_clean_query_has_no_trailer(self, drugtree):
        engine = QueryEngine(drugtree)
        report = engine.analyze("SELECT count(*) FROM bindings")
        assert report.analysis == ()
        assert "-- analysis:" not in report.render()


class TestMobileGate:
    def test_malformed_tap_rejected_before_any_fetch(self, dataset,
                                                     drugtree):
        server = DrugTreeServer(drugtree, ServerConfig())
        session_id, _ = server.open_session()
        before = dataset.registry.combined_stats()["roundtrips"]
        with pytest.raises(MobileError,
                           match="rejected by semantic analysis") as info:
            server.query(session_id, "SELECT ffamily FROM proteins")
        after = dataset.registry.combined_stats()["roundtrips"]
        assert after == before
        diagnostics = info.value.diagnostics
        assert diagnostics[0]["code"] == "DTQL002"
        assert "family" in diagnostics[0]["hint"]
        assert diagnostics[0]["span"] is not None

    def test_valid_query_still_served(self, drugtree):
        server = DrugTreeServer(drugtree, ServerConfig())
        session_id, _ = server.open_session()
        response = server.query(
            session_id, "SELECT count(*) FROM bindings")
        assert response.payload_rows == 1

    def test_contradictory_tap_served_from_analysis(self, drugtree):
        server = DrugTreeServer(drugtree, ServerConfig())
        session_id, _ = server.open_session()
        response = server.query(session_id, CONTRADICTION)
        assert response.payload_rows == 0

    @pytest.mark.parametrize("dtql", [
        "SELECT count(*) FROM bindings WHERE p_affinity >= 6.5",
        # DTQL301: the predicate joins in a table FROM does not name.
        "SELECT ligand_id FROM bindings WHERE organism = 'human'",
        # DTQL302: a federation-resolved column is selected.
        "SELECT protein_id, method FROM proteins WHERE family = 'x'",
    ])
    def test_accepted_tap_tokenizes_and_checks_once(
            self, dataset, drugtree, monkeypatch, dtql):
        """The intake contract: text is tokenized by the parser, the
        semantic pass reads its spans off those tokens, and nothing
        pre-checks the tap."""
        server = DrugTreeServer(
            drugtree, ServerConfig(),
            federation=FetchScheduler(dataset.registry))
        session_id, _ = server.open_session()
        calls = {"tokenize": 0, "check": 0}
        tokenize = parser_module.tokenize
        check = dtql_module.SemanticAnalyzer.check

        def counting_tokenize(text):
            calls["tokenize"] += 1
            return tokenize(text)

        def counting_check(self, *args, **kwargs):
            calls["check"] += 1
            return check(self, *args, **kwargs)

        monkeypatch.setattr(parser_module, "tokenize", counting_tokenize)
        monkeypatch.setattr(dtql_module, "tokenize", counting_tokenize)
        monkeypatch.setattr(dtql_module.SemanticAnalyzer, "check",
                            counting_check)
        server.query(session_id, dtql)
        assert calls == {"tokenize": 1, "check": 1}

    @pytest.mark.parametrize("dtql, code", [
        ("SELECT ffamily FROM proteins", "DTQL002"),
        ("SELECT * FROM bindings WHERE organism = 5", "DTQL101"),
        ("SELECT * FROM bindings WHERE value_nm <", "DTQL001"),
    ])
    def test_rejected_tap_carries_the_check_report(self, dataset,
                                                   drugtree, dtql, code):
        server = DrugTreeServer(
            drugtree, ServerConfig(),
            federation=FetchScheduler(dataset.registry))
        session_id, _ = server.open_session()
        server.query(session_id, "SELECT count(*) FROM bindings")
        rejected = get_metrics().counter("mobile.query_rejected")
        rejected_before = rejected.value
        roundtrips = dataset.registry.combined_stats()["roundtrips"]
        cache_before = server.engine.cache.stats()
        with pytest.raises(MobileError) as info:
            server.query(session_id, dtql)
        errors = server.engine.check(dtql).errors
        assert [d.code for d in errors] == [code]
        assert info.value.diagnostics == [d.as_dict() for d in errors]
        assert str(info.value) == (
            "query rejected by semantic analysis: "
            + "; ".join(d.render() for d in errors))
        assert rejected.value == rejected_before + 1
        assert dataset.registry.combined_stats()["roundtrips"] \
            == roundtrips
        assert server.engine.cache.stats() == cache_before

    @pytest.mark.parametrize("dtql", [
        "SELECT ffamily FROM proteins",
        "SELECT * FROM bindings WHERE organism = 5",
        "SELECT * FROM bindings WHERE value_nm <",
    ])
    def test_rejected_tap_is_checked_once(self, drugtree, monkeypatch,
                                          dtql):
        server = DrugTreeServer(drugtree, ServerConfig())
        session_id, _ = server.open_session()
        calls = []
        check = dtql_module.SemanticAnalyzer.check

        def counting_check(self, *args, **kwargs):
            calls.append(args)
            return check(self, *args, **kwargs)

        monkeypatch.setattr(dtql_module.SemanticAnalyzer, "check",
                            counting_check)
        with pytest.raises(MobileError):
            server.query(session_id, dtql)
        assert len(calls) == 1

    def test_engine_still_raises_parse_error(self, drugtree):
        with pytest.raises(ParseError):
            QueryEngine(drugtree).execute("garbage")
