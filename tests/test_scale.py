"""Moderate-scale smoke tests: the system at its intended working size.

These run a 250-leaf, 300-ligand world end to end — big enough to
exercise paging, index-count estimates, deep trees, and the LOD budget,
small enough to stay within seconds.
"""

import pytest

from repro.core import EngineConfig, QueryEngine
from repro.core.query.ast import Comparison
from repro.core.query.cards import CardinalityEstimator
from repro.mobile import (
    DrugTreeServer,
    MobileClient,
    NetworkLink,
    get_profile,
    plan_session,
    replay_session,
)
from repro.workloads import DatasetConfig, build_dataset


@pytest.fixture(scope="module")
def big_world():
    return build_dataset(DatasetConfig(n_leaves=250, n_ligands=300,
                                       seed=555))


@pytest.fixture(scope="module")
def big_drugtree(big_world):
    return big_world.drugtree()


class TestScale:
    def test_integration_covers_everything(self, big_world,
                                           big_drugtree):
        assert big_drugtree.protein_count == 250
        assert big_drugtree.ligand_count == 300
        assert big_drugtree.binding_count == len(big_world.bindings)
        assert big_drugtree.binding_count > 5000

    def test_paged_sources_still_consistent(self, big_world):
        """250 proteins exceed the 100-key page size: batched fetches
        must still return everything."""
        ids = big_world.family.protein_ids
        entries = big_world.protein_source.get_entries(list(ids))
        assert len(entries) == 250
        # ceil(250/100) pages per batch call.
        assert big_world.protein_source.stats.roundtrips >= 3

    def test_subtree_queries_fast_and_correct(self, big_drugtree):
        engine = QueryEngine(big_drugtree,
                             EngineConfig(use_semantic_cache=False))
        clades = [
            node.name for node in big_drugtree.tree.preorder()
            if node.name and not node.is_leaf
        ]
        total = big_drugtree.binding_count
        for clade in clades[:10]:
            result = engine.execute(
                f"SELECT count(*) IN SUBTREE '{clade}'"
            )
            materialized = big_drugtree.clade_stats(clade)["count"]
            assert result.scalar() == materialized <= total

    def test_deep_navigation_session(self, big_world, big_drugtree):
        server = DrugTreeServer(big_drugtree)
        link = NetworkLink(get_profile("3g"), big_world.clock, seed=1)
        client = MobileClient(server, link)
        session = plan_session(25, seed=9)
        replay_session(client, session, big_world.family.clade_names)
        assert len(client.interactions) == 26
        # LOD keeps every payload bounded regardless of tree size.
        view_bytes = [
            interaction.bytes_down
            for interaction in client.interactions
            if interaction.kind in ("open", "expand", "pan")
        ]
        assert max(view_bytes) < 20_000

    def test_band_estimate_is_the_index_count(self, big_drugtree):
        estimator = CardinalityEstimator(big_drugtree.tables)
        bindings = big_drugtree.tables["bindings"]
        band = (Comparison("p_affinity", ">=", 6.0),
                Comparison("p_affinity", "<", 7.5))
        expected = sum(1 for row in bindings.scan_rows()
                       if 6.0 <= bindings.value(row, "p_affinity") < 7.5)
        assert estimator.scan_rows("bindings", band) == expected > 0
