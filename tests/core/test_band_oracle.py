"""Every engine bounds a column as the naive engine does.

Which values a column's comparisons allow is decided in one place,
:class:`~repro.core.query.ast.Band`: the planner's index bands, the
analyzer's folding and emptiness proofs, the semantic cache's
subsumption and the cluster's partition pruning all read it. The
engines the parity suites compare with each other share that planner,
so here the reference is :class:`NaiveEngine`, which filters every row
with :meth:`Comparison.matches` and shares nothing else; answers agree
row for row, in order, a LIMIT's included. The draws aim
at the shapes that decide a band: two bounds at one value with
different strictness (in either order), a bound at a clade's edge, and
fractional literals on the integer ``leaf_pre``. The draws run twice:
with each range resolved as the cutoff decides, and with every range
forced onto the mask over the column's typed mirror.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterEngine
from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.core.query import vectorized
from repro.core.query.ast import (
    Band,
    Comparison,
    OrderBy,
    Query,
    SubtreeFilter,
)
from repro.workloads import DatasetConfig, build_dataset
from tests.storage.oracles import with_planted_bug

#: 24 leaves, every one holding bindings; the cluster cuts the leaf
#: positions into [0, 5), [5, 10), [10, 15) and [15, 24).
WORLD = DatasetConfig(n_leaves=24, n_ligands=40, seed=5)
CLUSTER = ClusterConfig(nodes=5, partitions=4, replication_factor=3,
                        read_quorum=2, write_quorum=2)
SELECT = ("ligand_id", "protein_id", "activity_type", "p_affinity",
          "leaf_pre")
COLUMNS = ("leaf_pre", "p_affinity")
OPS = ("=", "!=", "<", "<=", ">", ">=", "in")
#: Literals: a stored value picked by its rank (taken modulo the
#: number of distinct values), shifted off it, made a float, or kept.
SHIFTS = (0, 0.0, -0.5, 0.5)
RANKS = st.integers(0, 10_000)

#: ``(column, op, rank, shift)``; the rank of a ``leaf_pre`` bound may
#: instead be the query's clade ``edge`` (``"low"`` or ``"high"``).
single = st.tuples(st.sampled_from(COLUMNS), st.sampled_from(OPS), RANKS,
                   st.sampled_from(SHIFTS)).map(lambda spec: (spec,))
at_edge = st.tuples(st.just("leaf_pre"),
                    st.sampled_from(("<", "<=", ">", ">=")),
                    st.sampled_from(("low", "high")),
                    st.sampled_from(SHIFTS)).map(lambda spec: (spec,))
#: Two bounds at one value that differ only in strictness.
tie = st.tuples(st.sampled_from(COLUMNS),
                st.sampled_from(((">", ">="), (">=", ">"),
                                 ("<", "<="), ("<=", "<"))),
                RANKS, st.sampled_from(SHIFTS)).map(
    lambda spec: tuple((spec[0], op, spec[2], spec[3]) for op in spec[1]))
comparisons = st.lists(st.one_of(single, at_edge, tie), min_size=1,
                       max_size=3).map(
    lambda groups: tuple(spec for group in groups for spec in group)[:4])
#: ``(comparisons, clade rank or None, k of ORDER BY p_affinity DESC
#: LIMIT k or None)``.
queries = st.tuples(comparisons, st.one_of(st.none(), RANKS),
                    st.one_of(st.none(), st.integers(1, 12)))


@pytest.fixture(scope="module")
def world():
    dataset = build_dataset(WORLD)
    drugtree = dataset.drugtree()
    bindings = drugtree.tables["bindings"]
    values = {column: sorted({row[bindings.schema.index_of(column)]
                              for _, row in bindings.scan()})
              for column in COLUMNS}
    clades = sorted(node.name for node in drugtree.tree.preorder()
                    if node.name and not node.is_leaf)
    return dataset, drugtree, values, clades


class ColdCluster:
    """Each query through a new :class:`ClusterEngine` over one router.

    The warm engine's one view keeps every row its earlier reads
    returned, so a query pruned short of a partition can still find
    that partition's rows there; a cold engine holds only what this
    query's pruning read.
    """

    def __init__(self, warm: ClusterEngine) -> None:
        self.warm = warm

    def execute(self, query):
        return ClusterEngine(self.warm.tree, self.warm.router,
                             config=self.warm.config).execute(query)


def engines(world):
    """Fresh engines (and so fresh caches) over the world's overlay."""
    dataset, drugtree, _, _ = world
    cluster = ClusterEngine.from_drugtree(
        drugtree, cluster_config=CLUSTER, clock=dataset.clock)
    return {
        "vectorized": QueryEngine(drugtree),
        "row": QueryEngine(drugtree, EngineConfig(execution_mode="row")),
        "no_analysis": QueryEngine(
            drugtree, EngineConfig(use_semantic_analysis=False)),
        "cluster": cluster,
        "cold cluster": ColdCluster(cluster),
    }


def build_query(world, spec) -> Query:
    _, drugtree, values, clades = world
    specs, clade_rank, limit = spec
    clade = None if clade_rank is None else clades[clade_rank % len(clades)]
    edges = (drugtree.labeling.leaf_range(clade) if clade is not None
             else (0, drugtree.labeling.leaf_count))
    predicates = []
    for column, op, rank, shift in specs:
        stored = values[column]
        if rank in ("low", "high"):
            literal, rank = edges[rank == "high"], 0
        else:
            literal = stored[rank % len(stored)]
        if op == "in":
            literal = (literal, stored[rank * 7 % len(stored)])
        literal = (tuple(value + shift for value in literal) if op == "in"
                   else literal + shift)
        predicates.append(Comparison(column, op, literal))
    return Query(
        select=SELECT, predicates=tuple(predicates),
        subtree=None if clade is None else SubtreeFilter(clade),
        order_by=None if limit is None else OrderBy("p_affinity", True),
        limit=limit)


def answer(rows):
    """The rows in order, floats to 9 places: under a LIMIT, ties at
    the cut keep the rows first in row-id order on every engine."""
    return [tuple(round(value, 9) if isinstance(value, float) else value
                  for value in map(row.get, SELECT)) for row in rows]


def check_every_engine(world):
    """Run the property against fresh engines."""
    dataset = world[0]
    naive = NaiveEngine(dataset.tree, dataset.registry)
    under_test = engines(world)

    @settings(max_examples=40, deadline=None, database=None,
              derandomize=True, report_multiple_bugs=False,
              suppress_health_check=[HealthCheck.too_slow])
    # ``leaf_pre <= 10 IN SUBTREE 'clade_0001'``: the user's bound meets
    # the clade's ``< 10`` at one value.
    @example(((("leaf_pre", "<=", "high", 0),), 1, None))
    # ``p_affinity >= v AND p_affinity > v``, v the 40th-highest value:
    # without analysis nothing folds the pair before the planner.
    @example(((("p_affinity", ">=", -40, 0),
               ("p_affinity", ">", -40, 0)), None, None))
    # ``leaf_pre < 10.5``: leaf 10 opens the cluster's third partition.
    @example(((("leaf_pre", "<", 10, 0.5),), None, None))
    @given(queries)
    def agree(spec):
        query = build_query(world, spec)
        expected = answer(naive.execute(query).rows)
        for name, engine in under_test.items():
            assert answer(engine.execute(query).rows) == expected, \
                f"{name} disagrees with the naive engine on {query}"

    agree()


def test_every_engine_bounds_columns_as_the_naive_engine(world):
    check_every_engine(world)


def test_every_engine_bounds_columns_on_the_mirror_mask(world, monkeypatch):
    # Every index range over a mirrored column with literals of its
    # kind is one mask over the mirror, however narrow.
    monkeypatch.setattr(vectorized, "RANGE_MASK_SHARE", 0.0)
    check_every_engine(world)


@pytest.mark.parametrize("method, bugs", [
    # At one value the first bound wins instead of the strict one.
    ("of", (("bottom, not _LOWER_BOUNDS[op]) > (low, not include_low)",
             "bottom, 0) > (low, 0)"),
            ("top, _UPPER_BOUNDS[op]) < (high, include_high)",
             "top, 0) < (high, 0)"))),
    # A fractional end truncates toward zero.
    ("integers", (("else math.ceil(edge))", "else int(edge))"),)),
])
def test_planted_bug_in_the_band_is_caught(world, method, bugs):
    planted = with_planted_bug(getattr(Band, method), *bugs)
    with mock.patch.object(Band, method, planted), \
            pytest.raises(AssertionError):
        check_every_engine(world)


class TestAnswersOnceWrong:
    """Three answers that were wrong while four copies of the rule
    decided bounds, each on the world it was seen on."""

    def test_a_bound_at_a_clades_edge(self):
        # The CLI's default world, where clade_0001 is leaves [0, 33):
        # the clade's ``< 33`` wins over the user's ``<= 33``.
        dataset = build_dataset(DatasetConfig(n_leaves=40, n_ligands=80,
                                              seed=42))
        engine = QueryEngine(dataset.drugtree())
        text = ("SELECT count(*) FROM bindings WHERE leaf_pre <= 33 "
                "IN SUBTREE 'clade_0001'")
        assert "IndexRangeScan(leaf_pre in [0, 33))" in engine.explain(text)
        assert engine.execute(text).values == ((1705,),)
        assert NaiveEngine(dataset.tree, dataset.registry).execute(
            text).rows == [{"count_all": 1705}]

    @pytest.mark.parametrize("first, second", [(">=", ">"), (">", ">=")])
    def test_two_bounds_at_one_value_without_analysis(self, first, second):
        # The tap_mix workload's tiny world; v is the 40th-highest
        # affinity, held by one binding.
        dataset = build_dataset(DatasetConfig(n_leaves=24, n_ligands=30,
                                              seed=1101))
        drugtree = dataset.drugtree()
        bindings = drugtree.tables["bindings"]
        column = bindings.schema.index_of("p_affinity")
        v = sorted((row[column] for _, row in bindings.scan()),
                   reverse=True)[39]
        text = (f"SELECT count(*) FROM bindings WHERE p_affinity {first} "
                f"{v!r} AND p_affinity {second} {v!r}")
        engine = QueryEngine(drugtree,
                             EngineConfig(use_semantic_analysis=False))
        assert engine.execute(text).values == ((39,),)
        assert NaiveEngine(dataset.tree, dataset.registry).execute(
            text).rows == [{"count_all": 39}]
