"""Planning reads no row, however much the tables grew.

The planner prices every access path from index counts and table row
counts (``core/query/cards.py``), so planning costs the same at any
table size and after any number of inserts: nothing is re-collected.
This runs every generator kind and every ``analytic_scan`` template
after the bindings table grew by half, with every way of reading rows
patched to raise until the engine builds the physical plan: analysis,
the cache lookup, filter resolution and planning read none.
"""

from unittest import mock

import pytest

from ledger.workloads.analytic_scan import SCAN_TEMPLATES
from repro.core import EngineConfig, QueryEngine
from repro.storage.table import Table
from repro.workloads import DatasetConfig, QueryGenerator, build_dataset
from repro.workloads.queries import ALL_KINDS

ROW_READERS = ("scan", "scan_rows", "get", "column_store")


def grown_world():
    dataset = build_dataset(DatasetConfig(n_leaves=16, n_ligands=24,
                                          seed=3))
    drugtree = dataset.drugtree()
    bindings = drugtree.tables["bindings"]
    engine = QueryEngine(drugtree, EngineConfig(use_semantic_cache=False))
    engine.execute("SELECT count(*) FROM bindings")  # plan once first
    rows = [bindings.schema.row_as_dict(row)
            for row in bindings.scan_rows()]
    for row in rows[:len(rows) // 2]:
        bindings.insert(row)
    return dataset, engine


def queries(dataset):
    generator = QueryGenerator(dataset.family, dataset.ligands, seed=3)
    drawn = [generator.draw(kind) for kind in ALL_KINDS for _ in range(3)]
    return drawn + [template.format(t=t) for template in
                    SCAN_TEMPLATES.values() for t in (5.5, 7.25)]


def run_gated(engine, query):
    """Execute *query* with row reads refused until the engine builds
    its physical plan."""
    gate = {"open": False}
    build = QueryEngine._build_physical

    def building(self, *args, **kwargs):
        gate["open"] = True
        return build(self, *args, **kwargs)

    def guard(name):
        read = getattr(Table, name)

        def reader(self, *args, **kwargs):
            if not gate["open"]:
                raise AssertionError(
                    f"Table.{name} of {self.name!r} before execution")
            return read(self, *args, **kwargs)
        return reader

    with mock.patch.object(QueryEngine, "_build_physical", building), \
            mock.patch.multiple(Table, **{name: guard(name)
                                          for name in ROW_READERS}):
        return engine.execute(query)


def test_planning_reads_no_row():
    dataset, engine = grown_world()
    texts = queries(dataset)
    assert len(texts) == 3 * len(ALL_KINDS) + 2 * len(SCAN_TEMPLATES)
    for query in texts:
        assert run_gated(engine, query).columns, query


def test_a_row_read_before_execution_is_caught(monkeypatch):
    dataset, engine = grown_world()
    bindings = engine.drugtree.tables["bindings"]
    count = engine.planner.estimator.table_rows

    def counting_rows(table):
        list(bindings.scan_rows())  # what a re-collecting planner does
        return count(table)

    monkeypatch.setattr(engine.planner.estimator, "table_rows",
                        counting_rows)
    with pytest.raises(AssertionError, match="before execution"):
        run_gated(engine, queries(dataset)[0])
