"""Tests for the analyzer's rewrite rules: folding away redundant
predicates, and proving one column's predicates contradictory."""

from repro.analysis import SemanticAnalyzer
from repro.analysis.dtql import column_contradiction
from repro.core.query.ast import Comparison, Query


def _folded(*predicates):
    return SemanticAnalyzer().check(Query(predicates=predicates)).folded


class TestDeduplication:
    def test_exact_duplicates_removed(self):
        pred = Comparison("p_affinity", ">=", 5.0)
        assert _folded(pred, pred).predicates == (pred,)

    def test_implied_bound_removed(self):
        folded = _folded(
            Comparison("p_affinity", ">=", 5.0),
            Comparison("p_affinity", ">=", 7.0),
        )
        assert folded.predicates == (
            Comparison("p_affinity", ">=", 7.0),
        )

    def test_mixed_strictness_keeps_stronger(self):
        folded = _folded(
            Comparison("p_affinity", ">", 5.0),
            Comparison("p_affinity", ">=", 5.0),
        )
        assert folded.predicates == (
            Comparison("p_affinity", ">", 5.0),
        )

    def test_unrelated_predicates_untouched(self):
        preds = (
            Comparison("p_affinity", ">=", 5.0),
            Comparison("organism", "=", "x"),
        )
        assert _folded(*preds).predicates == preds


class TestContradictions:
    def test_conflicting_equalities(self):
        assert column_contradiction([
            Comparison("organism", "=", "a"),
            Comparison("organism", "=", "b"),
        ])

    def test_empty_band(self):
        assert column_contradiction([
            Comparison("p_affinity", ">=", 8.0),
            Comparison("p_affinity", "<=", 6.0),
        ])

    def test_touching_band_with_strict_bound(self):
        assert column_contradiction([
            Comparison("p_affinity", ">", 6.0),
            Comparison("p_affinity", "<=", 6.0),
        ])

    def test_touching_band_inclusive_is_fine(self):
        assert not column_contradiction([
            Comparison("p_affinity", ">=", 6.0),
            Comparison("p_affinity", "<=", 6.0),
        ])

    def test_equality_outside_range(self):
        assert column_contradiction([
            Comparison("p_affinity", "=", 3.0),
            Comparison("p_affinity", ">=", 5.0),
        ])

    def test_equality_vs_not_equal(self):
        assert column_contradiction([
            Comparison("organism", "=", "a"),
            Comparison("organism", "!=", "a"),
        ])

    def test_disjoint_in_sets(self):
        assert column_contradiction([
            Comparison("organism", "in", ("a", "b")),
            Comparison("organism", "in", ("c",)),
        ])

    def test_equality_outside_in_set(self):
        assert column_contradiction([
            Comparison("organism", "=", "z"),
            Comparison("organism", "in", ("a", "b")),
        ])

    def test_satisfiable_query_not_flagged(self):
        assert not column_contradiction([
            Comparison("p_affinity", ">=", 5.0),
            Comparison("p_affinity", "<=", 9.0),
        ])
        assert not column_contradiction([
            Comparison("organism", "in", ("a", "b")),
            Comparison("organism", "=", "a"),
        ])

    def test_equality_at_a_strict_bound(self):
        for first, second in ((("=", 5.0), (">", 5.0)),
                              ((">", 5.0), ("=", 5.0))):
            assert column_contradiction([
                Comparison("p_affinity", *first),
                Comparison("p_affinity", *second),
            ])

    def test_in_set_outside_range(self):
        assert column_contradiction([
            Comparison("p_affinity", "in", (1.0, 2.0)),
            Comparison("p_affinity", ">", 5.0),
        ])

    def test_literals_that_do_not_compare_prove_nothing(self):
        assert not column_contradiction([
            Comparison("p_affinity", ">", 5.0),
            Comparison("p_affinity", "<", "a"),
        ])
        assert not column_contradiction([
            Comparison("p_affinity", ">", 5.0),
            Comparison("p_affinity", ">", "a"),
        ])

    def test_in_set_emptied_by_not_equals(self):
        assert column_contradiction([
            Comparison("organism", "in", ("a", "b")),
            Comparison("organism", "!=", "a"),
            Comparison("organism", "!=", "b"),
        ])
        assert not column_contradiction([
            Comparison("organism", "in", ("a", "b")),
            Comparison("organism", "!=", "a"),
        ])
