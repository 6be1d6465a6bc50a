"""One answer per query: row order follows from two rules, not a plan.

Every key lookup (``index_eq``, ``key_set``, ``join_keys``) reads its
row ids ascending, and ``bindings`` is the probe side of every join. So
an un-ORDERed answer comes in ``bindings`` row-id order (or in its one
table's), each probe row's matches in the build side's row-id order,
and ORDER BY ties and a bare LIMIT keep the first rows in that order
(``docs/DTQL.md``, "Row order"). No plan choice can move it.

The property draws every generator kind, ``IN`` lists in any key order,
``bindings ⋈ ligands`` at thresholds where either side is the smaller,
and bare LIMITs, and runs each five ways: the batch engine, the row
engine, no indexes, the keyed probe planned away and ``NaiveEngine``.
The four plans' ``.values`` are ``==``; the naive rows equal them in
the same order, floats to 9 places (naive sums in its own order). Two
planted mutants must fail it: key lookups read in ``repr`` key order,
and a join building on ``bindings`` when it is the smaller side.
"""

from functools import cache
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.core.query import physical
from repro.core.query.executor import RowLowering
from repro.core.query.physical import ScanOp
from repro.core.query.planner import Planner
from repro.core.query.vectorized import VecScanOp, VectorizedLowering
from repro.workloads import DatasetConfig, QueryGenerator, build_dataset
from repro.workloads.queries import ALL_KINDS
from tests.core.test_keyed_probe import _unkeyed
from tests.storage.oracles import with_planted_bug

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None,
                    database=None,
                    phases=(Phase.explicit, Phase.generate))
CONFIGS = {
    "batch": {},
    "row": {"execution_mode": "row"},
    "no indexes": {"use_indexes": False},
}
IN_QUERY = ("SELECT protein_id, ligand_id, p_affinity FROM bindings "
            "WHERE protein_id IN ({keys}){limit}")
LIGAND_JOIN = ("SELECT protein_id, ligand_id, smiles FROM bindings, "
               "ligands WHERE p_affinity >= {threshold}{limit}")
BARE_LIMIT = "SELECT ligand_id, p_affinity FROM bindings{where} LIMIT {n}"


class World:
    """A small world, one engine per config and the naive oracle."""

    def __init__(self) -> None:
        self.dataset = build_dataset(DatasetConfig(n_leaves=24,
                                                   n_ligands=60, seed=5))
        drugtree = self.dataset.drugtree()
        self.engines = {name: QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False, **config))
            for name, config in CONFIGS.items()}
        self.naive = NaiveEngine(self.dataset.tree, self.dataset.registry)
        self.proteins = self.dataset.family.protein_ids

    def query(self, case):
        kind, pick, size, limit = case
        limit_text = "" if limit is None else f" LIMIT {limit}"
        if kind in ALL_KINDS:
            return QueryGenerator(self.dataset.family, self.dataset.ligands,
                                  seed=pick).draw(kind)
        if kind == "in":  # keys in no particular order
            ids = [self.proteins[(pick + 7 * i) % len(self.proteins)]
                   for i in range(size)]
            keys = ", ".join(f"'{key}'" for key in ids)
            return IN_QUERY.format(keys=keys, limit=limit_text)
        if kind == "ligands":
            return LIGAND_JOIN.format(threshold=4.0 + 0.5 * (pick % 12),
                                      limit=limit_text)
        where = "" if pick % 2 else f" WHERE p_affinity >= {pick % 9}"
        return BARE_LIMIT.format(where=where, n=size)


@cache
def world() -> World:
    return World()


def rounded(values) -> list:
    return [tuple(round(value, 9) if isinstance(value, float) else value
                  for value in row) for row in values]


cases = st.tuples(
    st.sampled_from((*ALL_KINDS, "in", "ligands", "limit")),
    st.integers(0, 40), st.integers(1, 6),
    st.one_of(st.none(), st.integers(1, 12)))


@SETTINGS
@given(case=cases)
# The IN list and the join that answered other rows than the naive
# engine under LIMIT while row order followed the plan's estimates.
@example(case=("in", 9, 2, 2))
@example(case=("ligands", 10, 1, 3))
@example(case=("ligands", 11, 1, None))
@example(case=("limit", 1, 5, None))
def check_one_answer(case):
    w = world()
    query = w.query(case)
    results = {name: engine.execute(query)
               for name, engine in w.engines.items()}
    with mock.patch.object(Planner, "_keyed_probe", _unkeyed):
        results["unkeyed"] = w.engines["batch"].execute(query)
    batch = results["batch"]
    for name, result in results.items():
        assert result.columns == batch.columns, (name, query)
        assert result.values == batch.values, (name, query)
    naive = w.naive.execute(query).rows
    assert all(row.keys() == set(batch.columns) for row in naive), query
    assert rounded(tuple(map(row.get, batch.columns)) for row in naive) \
        == rounded(batch.values), query


def test_every_plan_gives_the_naive_answer_in_its_order():
    check_one_answer()


def test_every_join_order_starts_with_bindings():
    w = world()
    queries = [LIGAND_JOIN.format(threshold=threshold, limit="")
               for threshold in (4.0, 9.5)]  # bindings larger, smaller
    queries.append(QueryGenerator(w.dataset.family, w.dataset.ligands,
                                  seed=1).draw("join"))
    for query in queries:
        order = w.engines["batch"].execute(query).plan.join_order
        assert len(order) > 1 and order[0] == "bindings", query


def test_a_limit_over_a_join_reads_only_its_first_probe_rows():
    # The CLI's default world, where the whole probe batch was read
    # (1,104 rows scanned) for three rows: the LIMIT's first chunk
    # reaches the bindings scan down the join's probe side, and only
    # it; the build side is read whole.
    dataset = build_dataset(DatasetConfig(n_leaves=40, n_ligands=80,
                                          seed=42))
    query = ("SELECT protein_id, ligand_id FROM bindings, ligands "
             "WHERE p_affinity >= 5 LIMIT 3")
    result = QueryEngine(dataset.drugtree(), EngineConfig(
        use_semantic_cache=False)).execute(query)
    naive = NaiveEngine(dataset.tree, dataset.registry).execute(query)
    assert result.rows == naive.rows
    assert len(result) == 3
    assert result.counters["rows_scanned"] < 200


#: ``(class or module, function name, (old, new)...)`` of each mutant.
PLANTED = {
    "key lookups in repr key order": (
        (physical, "resolve_access",
         ("for key in keys)", "for key in sorted(keys, key=repr))")),
        (ScanOp, "rows",
         ("sorted(self._row_ids())", "self._row_ids()")),
        (VecScanOp, "batches", ("row_ids.sort()", "row_ids"))),
    "build on bindings when it is the smaller side": tuple(
        (lowering, "_lower", (
            f"{op}, right, left,",
            f"{op}, *((left, right) if not node.keyed and "
            "node.left.estimated_rows < node.right.estimated_rows "
            "else (right, left)),"))
        for lowering, op in ((RowLowering, "HashJoinOp(counters"),
                             (VectorizedLowering,
                              "VecHashJoinOp(self.counters"))),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_order_bug_is_caught(name):
    patches = []
    for owner, attribute, bug in PLANTED[name]:
        planted = with_planted_bug(getattr(owner, attribute), bug)
        patches.append(mock.patch.object(owner, attribute, planted))
        if owner is physical:  # the batch engine imports it by name
            patches.append(mock.patch(
                "repro.core.query.vectorized.resolve_access", planted))
    for patch in patches:
        patch.start()
    try:
        with pytest.raises(AssertionError):
            check_one_answer()
    finally:
        for patch in patches:
            patch.stop()
