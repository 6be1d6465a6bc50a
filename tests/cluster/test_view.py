"""Cluster views are recovered overlays.

A view is loaded through :meth:`DrugTree.load_rows` — the loader
durable recovery uses — so rows the cluster already validated at
write time are not validated again, and the view's tables keep the
cluster's global row ids.
"""

from repro.storage.schema import Schema
from tests.cluster.test_parity import make_pair


def make_cluster():
    """The parity suite's overlay and the cluster sharded from it."""
    _, single, clustered = make_pair()
    return single.drugtree, clustered


def test_materialising_validates_no_row(monkeypatch):
    _, clustered = make_cluster()
    validated = []
    original = Schema.validate_row

    def counting(self, values):
        validated.append(self)
        return original(self, values)

    monkeypatch.setattr(Schema, "validate_row", counting)
    result = clustered.execute("SELECT count(*) FROM bindings")
    assert result.rows[0]["count_all"] > 0
    assert validated == []


def test_views_keep_the_global_row_ids():
    drugtree, clustered = make_cluster()
    full = clustered._view(
        frozenset(range(len(clustered.partitioner.partitions))), None)
    for name, table in drugtree.tables.items():
        assert dict(full.drugtree.tables[name].scan()) \
            == dict(table.scan()), name
    assert full.drugtree.protein_count == drugtree.protein_count
    assert full.drugtree.ligand_count == drugtree.ligand_count
    assert full.drugtree.statistics == clustered.statistics

    # A clade view holds a subset of the rows under the same ids.
    clade = clustered.partitioner.interval_partitions[-1].name
    clustered.execute(f"SELECT count(*) FROM bindings IN SUBTREE '{clade}'")
    view = next(view for pids, view in clustered._views.items()
                if len(pids) == 1)
    bindings = dict(drugtree.tables["bindings"].scan())
    subset = dict(view.drugtree.tables["bindings"].scan())
    assert 0 < len(subset) < len(bindings)
    assert subset.items() <= bindings.items()
