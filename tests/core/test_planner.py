"""Tests for the cost-based planner: access paths, join orders, the
subtree rewrite."""

from unittest import mock

import pytest

from repro.core import DrugTree, EngineConfig, QueryEngine
from repro.core.query.ast import (
    AggregateSpec,
    Comparison,
    Query,
    SubtreeFilter,
)
from repro.core.query.cards import CardinalityEstimator
from repro.core.query.logical import (
    LogicalCladeAggregate,
    LogicalJoin,
    LogicalScan,
)
from repro.core.query.planner import Planner
from repro.workloads import DatasetConfig, build_dataset


@pytest.fixture(scope="module")
def drugtree():
    dataset = build_dataset(DatasetConfig(n_leaves=24, n_ligands=40,
                                          seed=7))
    return dataset.drugtree()


def _planner(drugtree, **overrides):
    config = EngineConfig(**overrides)
    return Planner(
        tables=drugtree.tables,
        labeling=drugtree.labeling,
        estimator=CardinalityEstimator(drugtree.tables),
        config=config,
    )


def _find_scans(node):
    if isinstance(node, LogicalScan):
        return [node]
    out = []
    for child in node.children():
        out.extend(_find_scans(child))
    return out


class TestAccessPaths:
    def test_equality_with_hash_index_uses_index(self, drugtree):
        plan = _planner(drugtree).plan(Query(
            predicates=(Comparison("protein_id", "=", "prot_0001"),),
        ))
        scan = _find_scans(plan.logical)[0]
        assert scan.access == "index_eq"
        assert scan.access_column == "protein_id"

    def test_range_with_sorted_index_uses_range_scan(self, drugtree):
        plan = _planner(drugtree).plan(Query(
            predicates=(
                Comparison("p_affinity", ">=", 6.0),
                Comparison("p_affinity", "<", 8.0),
            ),
        ))
        scan = _find_scans(plan.logical)[0]
        assert scan.access == "index_range"
        assert scan.band.low == 6.0
        assert scan.band.high == 8.0
        assert not scan.band.include_high

    def test_indexes_disabled_forces_seq_scan(self, drugtree):
        plan = _planner(drugtree, use_indexes=False).plan(Query(
            predicates=(Comparison("protein_id", "=", "prot_0001"),),
        ))
        scan = _find_scans(plan.logical)[0]
        assert scan.access == "seq"

    def test_unindexed_column_falls_back_to_seq(self, drugtree):
        plan = _planner(drugtree).plan(Query(
            predicates=(Comparison("tpsa", "<=", 60.0),),
        ))
        scan = _find_scans(plan.logical)[0]
        assert scan.access == "seq"
        assert scan.residual  # predicate applied as filter

    def test_unselective_range_prefers_seq_scan(self, drugtree):
        """A range covering ~everything should not pay index overhead."""
        plan = _planner(drugtree).plan(Query(
            predicates=(Comparison("p_affinity", ">=", 0.0),),
        ))
        scan = _find_scans(plan.logical)[0]
        assert scan.access == "seq"


class TestSubtreeRewrite:
    def test_interval_rewrite(self, drugtree):
        # Pick a small clade so the range is selective enough that the
        # planner chooses the index path.
        labeling = drugtree.labeling
        clade = min(
            (node.name for node in drugtree.tree.preorder()
             if node.name and not node.is_leaf),
            key=lambda name: labeling.label_of(name).leaf_count,
        )
        plan = _planner(drugtree).plan(Query(
            subtree=SubtreeFilter(clade),
        ))
        scan = _find_scans(plan.logical)[0]
        assert scan.access == "index_range"
        assert scan.access_column == "leaf_pre"
        assert (scan.band.low, scan.band.high) \
            == drugtree.labeling.leaf_range(clade)

    def test_fallback_rewrite_without_labeling(self, drugtree):
        clade = drugtree.tree.root.children[0].name
        plan = _planner(drugtree, use_interval_labeling=False).plan(Query(
            subtree=SubtreeFilter(clade),
        ))
        leaves = {leaf.name for leaf in drugtree.tree.root.children[0]
                  .leaves()}
        scan = _find_scans(plan.logical)[0]
        assert [(p.column, p.op, set(p.value)) for p in scan.residual] \
            == [("protein_id", "in", leaves)]


class TestCladeFastPath:
    def _agg_query(self, clade):
        return Query(
            aggregates=(AggregateSpec("count", "*"),
                        AggregateSpec("mean", "p_affinity")),
            subtree=SubtreeFilter(clade),
        )

    def test_pure_clade_aggregate_takes_fast_path(self, drugtree):
        clade = drugtree.tree.root.children[0].name
        plan = _planner(drugtree).plan(self._agg_query(clade))
        assert isinstance(plan.logical, LogicalCladeAggregate)

    def test_extra_predicate_disables_fast_path(self, drugtree):
        clade = drugtree.tree.root.children[0].name
        query = Query(
            aggregates=(AggregateSpec("count", "*"),),
            predicates=(Comparison("potent", "=", True),),
            subtree=SubtreeFilter(clade),
        )
        plan = _planner(drugtree).plan(query)
        assert not isinstance(plan.logical, LogicalCladeAggregate)

    def test_disabled_by_config(self, drugtree):
        clade = drugtree.tree.root.children[0].name
        plan = _planner(drugtree,
                        use_materialized_aggregates=False).plan(
            self._agg_query(clade)
        )
        assert not isinstance(plan.logical, LogicalCladeAggregate)

    def test_planning_derives_the_tables_once(self, drugtree):
        # min() has no materialized answer: the fast path reads the
        # query's tables, gives up, and the plan reads them again.
        clade = drugtree.tree.root.children[0].name
        query = Query(aggregates=(AggregateSpec("min", "p_affinity"),),
                      subtree=SubtreeFilter(clade))
        assert query.tables() == ("bindings",)
        with mock.patch.object(Query, "referenced_columns", autospec=True,
                               side_effect=Query.referenced_columns) as spy:
            plan = _planner(drugtree).plan(query)
        assert not isinstance(plan.logical, LogicalCladeAggregate)
        assert spy.call_count == 0


class TestJoinOrdering:
    def _three_table_query(self):
        return Query(
            select=("protein_id", "ligand_id", "p_affinity", "logp"),
            predicates=(
                Comparison("organism", "=", "Homo sapiens"),
                Comparison("logp", "<=", 3.0),
            ),
        )

    def test_dp_explores_connected_orders_only(self, drugtree):
        plan = _planner(drugtree).plan(self._three_table_query())
        assert len(plan.join_order) == 3
        # bindings must be adjacent to both other tables; ligands and
        # proteins cannot be adjacent to each other first.
        assert plan.join_order[:2] != ("proteins", "ligands")
        assert plan.join_order[:2] != ("ligands", "proteins")

    def test_join_nodes_in_plan(self, drugtree):
        plan = _planner(drugtree).plan(self._three_table_query())
        joins = []

        def visit(node):
            if isinstance(node, LogicalJoin):
                joins.append(node)
            for child in node.children():
                visit(child)

        visit(plan.logical)
        assert len(joins) == 2


class TestContradictionsAndExplain:
    def test_explain_is_readable(self, drugtree):
        engine = QueryEngine(drugtree)
        text = engine.explain(
            "SELECT * FROM bindings WHERE p_affinity >= 7.0"
        )
        assert "cost=" in text
        assert "bindings" in text
