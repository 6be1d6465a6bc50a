"""One analysis per DTQL text: the engine's analysis memo.

A text's analysis depends on nothing but the text and the static
catalog, so the engine keeps each report (rejections included) and a
repeated text skips parse and check. Everything a caller can observe
must be what a fresh analysis gives: rows, EXPLAIN, the error type and
its diagnostics, the provably-empty short-circuit, the mobile server's
rejection — and, under threads racing an insert, every answer.
"""

import sys
import threading

import pytest

from repro.analysis import dtql as dtql_module
from repro.chem import ActivityType, BindingRecord
from repro.core import EngineConfig, QueryEngine
from repro.core.query import executor as executor_module
from repro.errors import MobileError, ParseError, QueryError
from repro.mobile import DrugTreeServer
from repro.obs import Tracer, get_metrics, get_tracer, set_tracer
from repro.workloads import DatasetConfig, build_dataset

EMPTY = ("SELECT count(*) FROM bindings WHERE p_affinity > 9 "
         "AND p_affinity < 2")
REJECTED = [
    ("SELECT ffamily FROM proteins", ParseError),  # no Query is built
    ("SELECT * FROM bindings WHERE organism = 5", QueryError),
    ("SELECT * FROM bindings WHERE value_nm <", ParseError),
]


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DatasetConfig(n_leaves=16, n_ligands=30, seed=9))


@pytest.fixture(scope="module")
def drugtree(dataset):
    return dataset.drugtree()


def texts(dataset):
    clades = dataset.family.clade_names
    return [
        "SELECT count(*) FROM bindings",
        "SELECT ligand_id, p_affinity FROM bindings "
        f"WHERE p_affinity >= 6.0 IN SUBTREE '{clades[1]}' "
        "ORDER BY p_affinity DESC LIMIT 5",
        "SELECT count(*), mean(p_affinity), max(p_affinity) "
        f"IN SUBTREE '{clades[2]}'",
        "SELECT organism, count(*) FROM bindings, proteins "
        "GROUP BY organism ORDER BY count_all DESC",
        # Folding drops the weaker bound: the memo keeps the folded query.
        "SELECT * FROM bindings WHERE p_affinity > 3 AND p_affinity > 7",
        EMPTY,
    ]


def uncached(drugtree):
    return QueryEngine(drugtree, EngineConfig(use_semantic_cache=False))


class TestMemoEqualsFresh:
    def test_rows_and_explain(self, dataset, drugtree):
        engine = uncached(drugtree)
        for text in texts(dataset):
            first = engine.execute(text)
            again = engine.execute(text)  # analysis from the memo
            fresh = uncached(drugtree)
            assert first.rows == again.rows == fresh.execute(text).rows
            assert engine.explain(text) == fresh.explain(text)
            assert engine.explain_analyze(text).splitlines()[:2] \
                == fresh.explain_analyze(text).splitlines()[:2]

    @pytest.mark.parametrize("text, error", REJECTED)
    def test_a_rejection_is_memoized_with_its_diagnostics(
            self, drugtree, text, error):
        engine = QueryEngine(drugtree)
        raised = []
        for candidate in (engine, engine, QueryEngine(drugtree)):
            with pytest.raises(QueryError) as info:
                candidate.execute(text)
            raised.append(info.value)
        with pytest.raises(error):
            engine.explain(text)
        assert [type(each) for each in raised] == [error] * 3
        assert len({str(each) for each in raised}) == 1
        assert raised[0].diagnostics == raised[1].diagnostics \
            == raised[2].diagnostics
        assert raised[0].diagnostics  # spans and hints survive the memo

    def test_one_check_per_text(self, dataset, drugtree, monkeypatch):
        calls = []
        check = dtql_module.SemanticAnalyzer.check

        def counting_check(self, *args, **kwargs):
            calls.append(args[0])
            return check(self, *args, **kwargs)

        monkeypatch.setattr(dtql_module.SemanticAnalyzer, "check",
                            counting_check)
        engine = QueryEngine(drugtree)
        for _ in range(3):
            for text in texts(dataset):
                engine.execute(text)
        assert calls == texts(dataset)

    def test_the_memo_keeps_no_parser_tokens(self, dataset, drugtree):
        engine = QueryEngine(drugtree)
        for text in texts(dataset):
            engine.execute(text)
        for report in engine._analyses.values():
            assert report.query.tokens == ()
            assert report.folded.tokens == ()
        for template in engine._shapes.values():
            assert template is None or template.tokens == ()

    def test_a_query_built_in_code_is_checked_every_time(
            self, drugtree, monkeypatch):
        calls = []
        check = dtql_module.SemanticAnalyzer.check

        def counting_check(self, *args, **kwargs):
            calls.append(args[0])
            return check(self, *args, **kwargs)

        monkeypatch.setattr(dtql_module.SemanticAnalyzer, "check",
                            counting_check)
        engine = QueryEngine(drugtree)
        query = dtql_module.parse_query("SELECT count(*) FROM bindings")
        engine.execute(query)
        engine.execute(query)
        assert len(calls) == 2
        assert not engine._analyses


class TestShortCircuitKept:
    def test_provably_empty_twice(self, drugtree):
        counter = get_metrics().counter("query.analysis_short_circuit")
        before = counter.value
        engine = QueryEngine(drugtree)
        for _ in range(2):
            result = engine.execute(EMPTY)
            assert result.plan is None  # never planned
            assert result.rows == [{"count_all": 0}]
            assert engine.explain(EMPTY).startswith(
                "-- analysis: provably empty: ")
        assert counter.value == before + 2


class TestMobileRejection:
    @pytest.mark.parametrize("text", [text for text, _ in REJECTED])
    def test_a_rejected_tap_twice(self, drugtree, text):
        server = DrugTreeServer(drugtree)
        session_id, _ = server.open_session()
        rejected = get_metrics().counter("mobile.query_rejected")
        before = rejected.value
        errors = []
        for _ in range(2):
            with pytest.raises(MobileError) as info:
                server.query(session_id, text)
            errors.append(info.value)
        assert errors[0].diagnostics == errors[1].diagnostics
        assert errors[0].diagnostics
        assert str(errors[0]) == str(errors[1])
        assert rejected.value == before + 2


class TestBound:
    def test_the_memo_drops_its_oldest_text(self, drugtree, monkeypatch):
        monkeypatch.setattr(executor_module, "ANALYSIS_MEMO_CAPACITY", 4)
        engine = QueryEngine(drugtree)
        sent = [f"SELECT count(*) FROM bindings WHERE p_affinity > {i}"
                for i in range(10)]
        for text in sent:
            engine.execute(text)
            assert len(engine._analyses) <= 4
        assert list(engine._analyses) == sent[-4:]


class TestSpanAttribute:
    def run_traced(self, engine, *queries):
        tracer, previous = Tracer(), get_tracer()
        set_tracer(tracer)
        try:
            for query in queries:
                engine.execute(query)
        finally:
            set_tracer(previous)
        return [span.attributes["analysis"]
                for span in tracer.finished_spans()
                if span.name == "query.execute"]

    def test_memo_or_fresh(self, drugtree):
        text = "SELECT count(*) FROM bindings WHERE p_affinity > 5"
        engine = QueryEngine(drugtree)
        query = dtql_module.parse_query(text)
        assert self.run_traced(engine, text, text, EMPTY, EMPTY, query) \
            == ["fresh", "memo", "fresh", "memo", "fresh"]

    def test_shape(self, drugtree):
        shape = "SELECT count(*) FROM bindings WHERE p_affinity > {}"
        engine = QueryEngine(drugtree)
        hits = get_metrics().counter("query.analysis.shape_hits")
        before = hits.value
        assert self.run_traced(
            engine, shape.format(5), shape.format(6), shape.format(6),
            # EMPTY's shape is not clean: its every text is checked.
            EMPTY, EMPTY.replace("9", "1"),
        ) == ["fresh", "shape", "memo", "fresh", "fresh"]
        assert hits.value == before + 1

    def test_a_rebound_text_the_literal_passes_flag_is_checked(
            self, drugtree):
        shape = ("SELECT count(*) FROM bindings WHERE p_affinity > {} "
                 "AND p_affinity < 9")
        engine = QueryEngine(drugtree)
        assert self.run_traced(engine, shape.format(5), shape.format(3),
                               shape.format(10)) \
            == ["fresh", "shape", "fresh"]
        assert engine.analyze(shape.format(10)).analysis \
            == QueryEngine(drugtree).analyze(shape.format(10)).analysis

    def test_off_without_analysis(self, drugtree):
        engine = QueryEngine(drugtree,
                             EngineConfig(use_semantic_analysis=False))
        text = "SELECT count(*) FROM bindings"
        assert self.run_traced(engine, text, text) == ["off", "off"]


class TestSharedAcrossThreads:
    def test_overlapping_texts_racing_an_insert(self):
        # A world of its own: this test inserts bindings.
        dataset = build_dataset(DatasetConfig(n_leaves=24, n_ligands=40,
                                              seed=11))
        drugtree = dataset.drugtree()
        engine = QueryEngine(drugtree)
        clades = dataset.family.clade_names
        shared = texts(dataset) + [
            f"SELECT count(*) FROM bindings WHERE p_affinity > {i / 2}"
            for i in range(12)] + [
            # One shape, literals varied: a clean shape's texts race to
            # store its template and to be rebound to it.
            "SELECT ligand_id, p_affinity FROM bindings "
            f"WHERE p_affinity >= {5 + i / 4} IN SUBTREE "
            f"'{clades[i % len(clades)]}' ORDER BY p_affinity DESC "
            f"LIMIT {i + 1}"
            for i in range(12)]
        proteins = dataset.family.protein_ids
        errors = []

        def reader(worker):
            try:
                for i in range(90):
                    engine.execute(shared[(worker * 5 + i) % len(shared)])
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def inserter():
            try:
                for i in range(40):
                    drugtree.add_binding(BindingRecord(
                        "LIG00000", proteins[i % len(proteins)],
                        ActivityType.KI, 10.0 + i))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(worker,))
                       for worker in range(4)]
            threads.append(threading.Thread(target=inserter))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert set(engine._analyses) == set(shared)

        oracle = uncached(drugtree)
        for text in shared:
            assert engine.execute(text).rows \
                == oracle.execute(text).rows, text
            assert engine.explain(text) == oracle.explain(text), text
