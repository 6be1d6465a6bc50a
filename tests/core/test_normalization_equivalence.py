"""Property: the semantic analyzer's folding never changes results.

Random conjunctive predicate sets (including redundant and contradictory
combinations) must produce identical rows whether or not the fold
rules fire — executed against a real overlay via both the optimized
engine (which plans the folded query) and direct row filtering (which
does not), and checked against the folded predicate set itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SemanticAnalyzer
from repro.core import EngineConfig, QueryEngine
from repro.core.query.ast import Comparison, Query
from repro.workloads import DatasetConfig, build_dataset

_AFFINITY_BOUNDS = st.tuples(
    st.sampled_from(["<", "<=", ">", ">="]),
    st.floats(4.0, 9.5, allow_nan=False).map(lambda v: round(v, 2)),
)

predicate_sets = st.lists(
    st.one_of(
        _AFFINITY_BOUNDS.map(
            lambda p: Comparison("p_affinity", p[0], p[1])
        ),
        st.sampled_from([True, False]).map(
            lambda v: Comparison("potent", "=", v)
        ),
        st.sampled_from(["Ki", "Kd", "IC50", "EC50"]).map(
            lambda v: Comparison("activity_type", "=", v)
        ),
        st.lists(st.sampled_from(["Ki", "Kd", "IC50"]), min_size=1,
                 max_size=3).map(
            lambda v: Comparison("activity_type", "in", tuple(v))
        ),
    ),
    min_size=1, max_size=5,
)

_ANALYZER = SemanticAnalyzer()


@pytest.fixture(scope="module")
def world():
    dataset = build_dataset(DatasetConfig(n_leaves=12, n_ligands=20,
                                          seed=71))
    drugtree = dataset.drugtree()
    engine = QueryEngine(drugtree, EngineConfig(use_semantic_cache=False))
    rows = engine.execute("SELECT * FROM bindings").rows
    return engine, rows


def _filtered(rows, predicates):
    return sorted(
        repr(row) for row in rows
        if all(pred.matches(row.get(pred.column)) for pred in predicates))


@settings(max_examples=60, deadline=None)
@given(predicates=predicate_sets)
def test_property_normalized_query_matches_direct_filter(world,
                                                         predicates):
    engine, all_rows = world
    query = Query(predicates=tuple(predicates))
    result = engine.execute(query)
    assert sorted(map(repr, result.rows)) \
        == _filtered(all_rows, predicates)


@settings(max_examples=60, deadline=None)
@given(predicates=predicate_sets)
def test_property_contradiction_flag_is_sound(world, predicates):
    """If the analyzer proves the query empty, the direct filter must
    find zero rows (the verdict may be conservative, never wrong)."""
    engine, all_rows = world
    report = _ANALYZER.check(Query(predicates=tuple(predicates)))
    if report.provably_empty:
        assert _filtered(all_rows, predicates) == []


@settings(max_examples=60, deadline=None)
@given(predicates=predicate_sets)
def test_property_dropped_predicates_were_redundant(world, predicates):
    """Filtering with the folded predicate set must equal filtering
    with the original set."""
    engine, all_rows = world
    report = _ANALYZER.check(Query(predicates=tuple(predicates)))
    assert _filtered(all_rows, report.folded.predicates) \
        == _filtered(all_rows, predicates)
