"""The row engine stays an oracle independent of the column store.

Both engines resolve a scan's access path through one function, but
the row engine's ``ScanOp`` must read the rows themselves from the row
store (``Table.scan_rows``/``Table.get``), never from the
``ColumnStore`` the batch engine reads. Each case below changes one
value in the column store, in its list buffer and its typed mirror
alike: the batch engine's answer must move, and the row engine's must
not, still agreeing with ``NaiveEngine``, which reads the sources.
"""

import pytest

from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.workloads import DatasetConfig, build_dataset

COLUMNS = "SELECT ligand_id, p_affinity FROM bindings WHERE "
#: One query per access path ``ScanOp``/``VecScanOp`` serve, and the
#: EXPLAIN path name that proves the planner chose it.
CASES = {
    "seq": ("activity_type = 'Ki'", "SeqScan"),
    "index_eq": ("ligand_id = 'LIG00003'", "IndexEqScan"),
    "index_range": ("p_affinity >= 8.0", "IndexRangeScan"),
    "key_set": ("protein_id IN ('prot_0001', 'prot_0002')", "KeySetScan"),
}


@pytest.fixture(scope="module")
def world():
    return build_dataset(DatasetConfig(n_leaves=16, n_ligands=24, seed=17))


def _engine(drugtree, mode):
    return QueryEngine(drugtree, EngineConfig(use_semantic_cache=False,
                                              execution_mode=mode))


def _canonical(rows):
    return sorted((row["ligand_id"], round(row["p_affinity"], 9))
                  for row in rows)


@pytest.mark.parametrize("access", sorted(CASES))
def test_row_engine_does_not_read_the_column_store(world, access):
    where, path = CASES[access]
    text = COLUMNS + where
    drugtree = world.drugtree()
    row, vec = _engine(drugtree, "row"), _engine(drugtree, "vectorized")
    assert path in row.explain(text)
    before = row.execute(text)
    assert before.rows == vec.execute(text).rows
    assert _canonical(before.rows) == _canonical(
        NaiveEngine(world.tree, world.registry).execute(text).rows)

    # Move the first answer's p_affinity in the column store only.
    table = drugtree.tables["bindings"]
    store = table.column_store()
    answer = before.values[0]
    first = next(row_id for row_id, values in table.scan()
                 if (table.value(values, "ligand_id"),
                     table.value(values, "p_affinity")) == answer)
    position = store.position_of(first)
    buffer, (data, _) = store.column("p_affinity"), store.typed("p_affinity")
    kept = buffer[position]
    buffer[position] = data[position] = moved = kept + 100.0
    try:
        after_vec = vec.execute(text)
        after_row = row.execute(text)
    finally:
        buffer[position] = data[position] = kept
    assert after_vec.rows != before.rows
    assert moved in [r["p_affinity"] for r in after_vec.rows]
    assert after_row.rows == before.rows
    assert after_row.counters["operators"].count("ScanOp") == 1
