"""EXPLAIN ANALYZE on a small fixture tree: rows, round-trips, render."""

import json

import pytest

from repro import obs
from repro.core import EngineConfig, QueryEngine
from repro.obs import MetricsRegistry, Tracer
from repro.sources import FetchScheduler
from repro.workloads import DatasetConfig, build_dataset

QUERY = "SELECT * FROM bindings WHERE p_affinity >= 6.0"


@pytest.fixture(scope="module")
def world():
    """Small world built against its own metrics registry, so the
    integration round-trips are attributable (and isolated from other
    test modules)."""
    metrics = MetricsRegistry()
    previous = obs.get_metrics()
    obs.set_metrics(metrics)
    try:
        dataset = build_dataset(DatasetConfig(n_leaves=12, n_ligands=16,
                                              seed=7))
        drugtree = dataset.drugtree()
    finally:
        obs.set_metrics(previous)
    return dataset, drugtree, metrics


@pytest.fixture()
def installed():
    """``installed(metrics, tracer=None)`` makes them the process-wide
    registry and tracer until the test ends."""
    previous = obs.get_metrics(), obs.get_tracer()

    def install(metrics, tracer=None):
        obs.set_metrics(metrics)
        obs.set_tracer(tracer)

    yield install
    install(*previous)


@pytest.fixture()
def engine(world, installed):
    dataset, drugtree, metrics = world
    installed(metrics, Tracer(clock=dataset.clock))
    return QueryEngine(drugtree)


class TestRowCounts:
    def test_actual_rows_match_execute(self, engine):
        executed = engine.execute(QUERY)
        report = engine.analyze(QUERY)
        assert report.rows == len(executed.rows)
        assert report.operators.rows_out == len(executed.rows)

    def test_aggregate_query_yields_one_row(self, engine):
        report = engine.analyze("SELECT count(*) FROM bindings")
        assert report.rows == 1
        assert report.operators.rows_out == 1
        # The scan below the aggregate saw the full table.
        scan_rows = [node.rows_out
                     for node in self._walk(report.operators)
                     if "Scan" in node.label]
        assert scan_rows and max(scan_rows) > 1

    def _walk(self, stats):
        yield stats
        for child in stats.children:
            yield from self._walk(child)

    def test_estimates_are_reported(self, engine):
        report = engine.analyze(QUERY)
        assert report.estimated_cost > 0
        assert report.estimated_rows > 0
        assert report.row_estimate_error >= 1.0


class TestSourceRoundTrips:
    def test_integration_totals_visible_and_execution_adds_none(
            self, engine):
        """The integrated overlay answers locally: the sources were hit
        while building the world, not while running the query."""
        report = engine.analyze(QUERY)
        assert report.source_roundtrips, "integration recorded no sources"
        for name, delta in report.source_roundtrips.items():
            assert delta["total"] > 0, name
            assert delta["during"] == 0, name

    def test_roundtrip_section_renders_totals(self, engine):
        text = engine.analyze(QUERY).render()
        assert "-- source round-trips: " in text
        assert "total" in text

    def test_empty_registry_renders_none_recorded(self, world, installed):
        _, drugtree, _ = world
        installed(MetricsRegistry())
        text = QueryEngine(drugtree).analyze(QUERY).render()
        assert "-- source round-trips: none recorded" in text

    def test_a_federated_query_reports_the_round_trips_it_made(
            self, world, installed):
        # One registry per process: the sources, the scheduler and
        # EXPLAIN ANALYZE all count into the one set_metrics installed.
        dataset, drugtree, _ = world
        installed(MetricsRegistry())
        engine = QueryEngine(drugtree,
                             federation=FetchScheduler(dataset.registry))
        sources = dataset.registry.sources()
        before = {source.name: source.stats.roundtrips
                  for source in sources}
        report = engine.analyze(
            "SELECT protein_id, method, go_terms FROM proteins LIMIT 3")
        made = {source.name: source.stats.roundtrips - before[source.name]
                for source in sources}
        assert sum(made.values()) > 0
        assert {name: delta["during"] for name, delta
                in report.source_roundtrips.items()} \
            == {name: count for name, count in made.items() if count}
        assert report.federation["scheduler.batches"] == 1
        assert "-- fetch scheduler: batches=1" in report.render()


class TestRender:
    def test_render_carries_the_contract_substrings(self, engine):
        report = engine.analyze(QUERY)
        text = report.render()
        assert text.startswith("EXPLAIN ANALYZE")
        assert "cost=" in text
        assert "-- actual:" in text
        assert "scanned" in text
        assert f"{report.rows} rows" in text
        assert "[actual rows=" in text
        assert "-- cache: " in text
        assert "-- estimate vs actual:" in text

    def test_cache_outcome_reflects_a_warm_cache(self, engine):
        engine.execute(QUERY)
        report = engine.analyze(QUERY)
        assert report.cache_outcome == \
            "exact (result recomputed for analysis)"

    def test_cache_off_is_reported(self, world, installed):
        _, drugtree, _ = world
        installed(MetricsRegistry())
        no_cache = QueryEngine(
            drugtree, EngineConfig(use_semantic_cache=False))
        report = no_cache.analyze(QUERY)
        assert report.cache_outcome == "off (semantic cache disabled)"

    def test_explain_analyze_is_the_rendered_report(self, engine):
        assert engine.explain_analyze(QUERY).startswith("EXPLAIN ANALYZE")

    def test_as_dict_round_trips_through_json(self, engine):
        data = engine.analyze(QUERY).as_dict()
        assert data == json.loads(json.dumps(data))
        assert data["operators"]["rows_out"] == data["rows"]


class TestOperatorSpans:
    def test_analyze_emits_per_operator_spans(self, world, installed):
        dataset, drugtree, metrics = world
        tracer = Tracer(clock=dataset.clock)
        installed(metrics, tracer)
        engine = QueryEngine(drugtree)
        report = engine.analyze(QUERY)
        op_spans = [span for span in tracer.finished_spans()
                    if span.name.startswith("op.")]
        assert op_spans, "no per-operator spans recorded"
        roots = [span for span in op_spans
                 if span.attributes["label"] == report.operators.label]
        assert roots and roots[0].attributes["rows"] == report.rows

