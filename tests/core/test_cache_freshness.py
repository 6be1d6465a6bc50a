"""The semantic cache never serves an answer computed before a write.

The engine reads ``DrugTree.data_version`` before its cache lookup and
hands the same version to the store. Below, a source double stands in
for a writer and a second reader between one query's lookup and its
store: during the query's remote fetch it lands one binding in the
queried clade, then runs the same query as another session would. The
first query's answer predates the insert, so the cache must drop it and
keep the second one. A planted cache whose ``store`` ignores its
version must fail the same replay.
"""

import pytest

from repro.chem import ActivityType, BindingRecord
from repro.core import QueryEngine
from repro.core.query.cache import SemanticCache
from repro.sources import FetchScheduler, SourceRegistry
from repro.workloads import DatasetConfig, build_dataset


class WriterMidFetch:
    """The protein source, except that its first fetch calls *hook*
    before answering."""

    def __init__(self, inner, hook):
        self.inner = inner
        self.name = inner.name
        self.hook = hook

    def kinds(self):
        return self.inner.kinds()

    def fetch_many(self, kind, keys):
        hook, self.hook = self.hook, None
        if hook is not None:
            hook()
        return self.inner.fetch_many(kind, keys)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def replay(planted_cache=None):
    dataset = build_dataset(DatasetConfig(n_leaves=12, n_ligands=12,
                                          seed=17))
    drugtree = dataset.drugtree()
    clade = dataset.family.clade_names[1]
    leaf = next(name for name in drugtree.tree.leaf_names()
                if drugtree.labeling.is_ancestor(clade, name))
    text = ("SELECT ligand_id, protein_id, method FROM bindings "
            f"IN SUBTREE '{clade}'")
    second = []

    def writer_then_reader():
        drugtree.add_binding(BindingRecord("LIG00000", leaf,
                                           ActivityType.KI, 5.0))
        second.append(engine.execute(text))

    registry = SourceRegistry()
    registry.register(WriterMidFetch(dataset.protein_source,
                                     writer_then_reader))
    registry.register(dataset.activity_source)
    registry.register(dataset.annotation_source)
    engine = QueryEngine(drugtree, federation=FetchScheduler(
        registry, clock=dataset.clock))
    if planted_cache is not None:
        engine.cache = planted_cache()

    first = engine.execute(text)  # computed before the insert
    repeat = engine.execute(text)
    fresh = QueryEngine(drugtree, federation=FetchScheduler(
        dataset.registry, clock=dataset.clock)).execute(text)
    assert len(first.rows) + 1 == len(fresh.rows)
    assert second[0].rows == fresh.rows
    assert repeat.cache_outcome == "exact"
    assert repeat.rows == fresh.rows


def test_a_write_mid_query_never_files_the_older_answer():
    replay()


class VersionBlindCache(SemanticCache):
    """Planted bug: ``store`` files every answer under the newest
    version the cache has seen, not the one its lookup carried."""

    def store(self, query, columns, values, version):
        super().store(query, columns, values, self._version)


def test_planted_version_blind_store_fails_the_replay():
    with pytest.raises(AssertionError):
        replay(VersionBlindCache)
