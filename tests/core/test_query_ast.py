"""Tests for the query AST: predicates, implication, table inference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query.ast import (
    AggregateSpec,
    Comparison,
    OrderBy,
    Query,
    SimilarityFilter,
    SubtreeFilter,
)
from repro.errors import QueryError

numbers = st.floats(-100, 100, allow_nan=False)
range_ops = st.sampled_from(["<", "<=", ">", ">="])


class TestComparison:
    def test_matches_each_operator(self):
        assert Comparison("p_affinity", "=", 5.0).matches(5.0)
        assert Comparison("p_affinity", "!=", 5.0).matches(4.0)
        assert Comparison("p_affinity", "<", 5.0).matches(4.9)
        assert Comparison("p_affinity", "<=", 5.0).matches(5.0)
        assert Comparison("p_affinity", ">", 5.0).matches(5.1)
        assert Comparison("p_affinity", ">=", 5.0).matches(5.0)
        assert Comparison("organism", "in", ("a", "b")).matches("a")

    def test_null_never_matches(self):
        assert not Comparison("organism", "=", "x").matches(None)
        assert not Comparison("organism", "!=", "x").matches(None)

    def test_unknown_operator(self):
        with pytest.raises(QueryError):
            Comparison("p_affinity", "~", 5.0)

    def test_unknown_column(self):
        with pytest.raises(QueryError):
            Comparison("bogus", "=", 5.0)

    def test_in_needs_collection(self):
        with pytest.raises(QueryError):
            Comparison("organism", "in", "abc")


class TestImplication:
    def test_equal_predicates_imply_each_other(self):
        a = Comparison("p_affinity", ">=", 5.0)
        assert a.implies(a)

    def test_tighter_lower_bound_implies_looser(self):
        tight = Comparison("p_affinity", ">=", 7.0)
        loose = Comparison("p_affinity", ">=", 5.0)
        assert tight.implies(loose)
        assert not loose.implies(tight)

    def test_strict_vs_inclusive_bounds(self):
        assert Comparison("p_affinity", ">", 5.0).implies(
            Comparison("p_affinity", ">=", 5.0)
        )
        assert not Comparison("p_affinity", ">=", 5.0).implies(
            Comparison("p_affinity", ">", 5.0)
        )

    def test_equality_implies_satisfied_range(self):
        eq = Comparison("p_affinity", "=", 6.0)
        assert eq.implies(Comparison("p_affinity", ">=", 5.0))
        assert not eq.implies(Comparison("p_affinity", ">=", 7.0))

    def test_in_subset_implies_superset(self):
        small = Comparison("organism", "in", ("a",))
        big = Comparison("organism", "in", ("a", "b"))
        assert small.implies(big)
        assert not big.implies(small)

    def test_equality_implies_in(self):
        eq = Comparison("organism", "=", "a")
        assert eq.implies(Comparison("organism", "in", ("a", "b")))

    def test_in_set_implies_the_range_holding_its_hull(self):
        small = Comparison("p_affinity", "in", (6.0, 7.0))
        assert small.implies(Comparison("p_affinity", ">=", 6.0))
        assert not small.implies(Comparison("p_affinity", ">", 6.0))
        assert not Comparison("p_affinity", ">=", 6.0).implies(small)

    def test_no_range_implies_not_equal(self):
        assert not Comparison("p_affinity", ">", 5.0).implies(
            Comparison("p_affinity", "!=", 3.0)
        )
        assert Comparison("p_affinity", "=", 5.0).implies(
            Comparison("p_affinity", "!=", 3.0)
        )

    def test_literals_that_do_not_compare_imply_nothing(self):
        assert not Comparison("p_affinity", ">", 5.0).implies(
            Comparison("p_affinity", ">", "a")
        )

    def test_different_columns_never_imply(self):
        assert not Comparison("p_affinity", ">=", 5.0).implies(
            Comparison("logp", ">=", 1.0)
        )

    @settings(max_examples=100, deadline=None)
    @given(range_ops, numbers, range_ops, numbers, numbers)
    def test_property_implication_is_sound(self, op_a, val_a, op_b,
                                           val_b, probe):
        """If A implies B, every value matching A must match B."""
        pred_a = Comparison("p_affinity", op_a, val_a)
        pred_b = Comparison("p_affinity", op_b, val_b)
        if pred_a.implies(pred_b) and pred_a.matches(probe):
            assert pred_b.matches(probe)


class TestQueryValidation:
    def test_group_by_requires_aggregates(self):
        with pytest.raises(QueryError):
            Query(select=("organism",), group_by="organism")

    def test_plain_columns_with_aggregates_must_be_group_key(self):
        with pytest.raises(QueryError):
            Query(select=("smiles",),
                  aggregates=(AggregateSpec("count", "*"),),
                  group_by="organism")
        Query(select=("organism",),
              aggregates=(AggregateSpec("count", "*"),),
              group_by="organism")  # valid

    def test_count_star_only(self):
        with pytest.raises(QueryError):
            AggregateSpec("mean", "*")

    @pytest.mark.parametrize("func", ["sum", "mean"])
    @pytest.mark.parametrize("column", ["potent", "protein_id", "organism"])
    def test_sum_and_mean_need_a_numeric_column(self, func, column):
        with pytest.raises(QueryError, match="needs a numeric column") \
                as info:
            AggregateSpec(func, column)
        assert (info.value.code, info.value.name) == ("DTQL004", column)

    @pytest.mark.parametrize("func", ["count", "min", "max"])
    def test_other_aggregates_take_any_column(self, func):
        AggregateSpec(func, "potent")
        AggregateSpec(func, "organism")

    def test_limit_positive(self):
        with pytest.raises(QueryError):
            Query(limit=0)

    def test_similarity_threshold_bounds(self):
        with pytest.raises(QueryError):
            SimilarityFilter("CCO", 0.0)
        with pytest.raises(QueryError):
            SimilarityFilter("CCO", 1.5)

    def test_subtree_needs_name(self):
        with pytest.raises(QueryError):
            SubtreeFilter("")

    def test_unknown_order_by(self):
        with pytest.raises(QueryError):
            Query(order_by=OrderBy("bogus"))

    def test_order_by_aggregate_output(self):
        Query(aggregates=(AggregateSpec("count", "*"),),
              order_by=OrderBy("count_all"))  # valid


class TestTableInference:
    def test_bindings_only(self):
        query = Query(predicates=(Comparison("p_affinity", ">=", 5.0),))
        assert query.tables() == ("bindings",)

    def test_organism_forces_proteins(self):
        query = Query(predicates=(Comparison("organism", "=", "x"),))
        assert query.tables() == ("proteins",)

    def test_ligand_property_forces_ligands(self):
        query = Query(predicates=(Comparison("logp", "<=", 3.0),))
        assert query.tables() == ("ligands",)

    def test_proteins_plus_ligands_routes_through_bindings(self):
        query = Query(predicates=(
            Comparison("organism", "=", "x"),
            Comparison("logp", "<=", 3.0),
        ))
        assert query.tables() == ("bindings", "proteins", "ligands")

    def test_shared_keys_default_to_bindings(self):
        query = Query(predicates=(Comparison("ligand_id", "=", "L1"),))
        assert query.tables() == ("bindings",)

    def test_similarity_forces_ligands(self):
        query = Query(similar=SimilarityFilter("CCO", 0.7))
        assert query.tables() == ("ligands",)

    def test_subtree_alone_forces_bindings(self):
        query = Query(subtree=SubtreeFilter("clade_1"))
        assert query.tables() == ("bindings",)

    def test_subtree_with_ligands_adds_bindings(self):
        query = Query(
            predicates=(Comparison("logp", "<=", 3.0),),
            subtree=SubtreeFilter("clade_1"),
        )
        assert query.tables() == ("bindings", "ligands")


class TestSignature:
    def test_signature_is_order_insensitive_for_predicates(self):
        a = Query(predicates=(
            Comparison("p_affinity", ">=", 5.0),
            Comparison("potent", "=", True),
        ))
        b = Query(predicates=(
            Comparison("potent", "=", True),
            Comparison("p_affinity", ">=", 5.0),
        ))
        assert a.signature() == b.signature()

    def test_signature_distinguishes_limits(self):
        a = Query(limit=5)
        b = Query(limit=6)
        assert a.signature() != b.signature()
