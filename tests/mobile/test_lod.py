"""Tests for level-of-detail rendering."""

from unittest import mock

import pytest

from repro.bio.simulate import birth_death_tree
from repro.bio.tree import PhyloNode
from repro.core import DrugTree
from repro.errors import MobileError
from repro.mobile.lod import expandable_nodes, render_full, render_viewport
from repro.mobile.protocol import full_message
from repro.workloads import DatasetConfig, build_dataset
from repro.workloads.families import name_internal_clades


@pytest.fixture(scope="module")
def drugtree():
    dataset = build_dataset(DatasetConfig(n_leaves=32, n_ligands=40,
                                          seed=13))
    return dataset.drugtree()


def _root_clade(drugtree):
    for node in drugtree.tree.preorder():
        if node.name and not node.is_leaf:
            return node.name
    raise AssertionError("no named internal node")


class TestViewport:
    def test_depth_zero_is_single_summary(self, drugtree):
        clade = _root_clade(drugtree)
        payload = render_viewport(drugtree, clade, max_depth=0)
        assert len(payload["nodes"]) == 1
        only = next(iter(payload["nodes"].values()))
        assert only["collapsed"]
        assert only["summary"]["bindings"] >= 0

    def test_deeper_viewport_shows_more(self, drugtree):
        clade = _root_clade(drugtree)
        shallow = render_viewport(drugtree, clade, max_depth=1)
        deep = render_viewport(drugtree, clade, max_depth=4)
        assert len(deep["nodes"]) > len(shallow["nodes"])

    def test_collapsed_nodes_carry_clade_stats(self, drugtree):
        clade = _root_clade(drugtree)
        payload = render_viewport(drugtree, clade, max_depth=1)
        for entry in payload["nodes"].values():
            if entry["collapsed"]:
                summary = entry["summary"]
                assert set(summary) == {
                    "bindings", "mean_p_affinity", "max_p_affinity",
                    "potent_fraction",
                }

    def test_summary_matches_materialized_stats(self, drugtree):
        clade = _root_clade(drugtree)
        payload = render_viewport(drugtree, clade, max_depth=0)
        only = next(iter(payload["nodes"].values()))
        stats = drugtree.clade_stats(clade)
        assert only["summary"]["bindings"] == int(stats["count"])

    def test_max_nodes_bounds_payload(self, drugtree):
        clade = _root_clade(drugtree)
        payload = render_viewport(drugtree, clade, max_depth=50,
                                  max_nodes=10)
        # Bounded: expansion stops once the budget is hit; every extra
        # node appears only as a collapsed summary.
        expanded = [e for e in payload["nodes"].values()
                    if not e["collapsed"] and not e["leaf"]]
        assert len(expanded) <= 11

    def test_edges_connect_known_nodes(self, drugtree):
        clade = _root_clade(drugtree)
        payload = render_viewport(drugtree, clade, max_depth=3)
        keys = set(payload["nodes"])
        for parent, child in payload["edges"]:
            assert parent in keys
            assert child in keys

    def test_unknown_focus(self, drugtree):
        with pytest.raises(MobileError):
            render_viewport(drugtree, "not_a_node")

    def test_invalid_parameters(self, drugtree):
        clade = _root_clade(drugtree)
        with pytest.raises(MobileError):
            render_viewport(drugtree, clade, max_depth=-1)
        with pytest.raises(MobileError):
            render_viewport(drugtree, clade, max_nodes=0)

    def test_payload_is_wire_serialisable(self, drugtree):
        clade = _root_clade(drugtree)
        payload = render_viewport(drugtree, clade, max_depth=3)
        message = full_message(payload)
        assert message.payload() == payload


class TestFullRender:
    def test_covers_every_node(self, drugtree):
        payload = render_full(drugtree)
        assert len(payload["nodes"]) == drugtree.tree.node_count

    def test_leaves_carry_bindings(self, drugtree):
        payload = render_full(drugtree)
        leaf_entries = [entry for entry in payload["nodes"].values()
                        if entry["leaf"]]
        assert any(entry.get("bindings") for entry in leaf_entries)

    def test_full_render_much_bigger_than_viewport(self, drugtree):
        clade = _root_clade(drugtree)
        full = full_message(render_full(drugtree))
        lod = full_message(render_viewport(drugtree, clade, max_depth=2))
        assert full.wire_bytes > 4 * lod.wire_bytes


class TestExpandable:
    def test_lists_collapsed_named_nodes(self, drugtree):
        clade = _root_clade(drugtree)
        payload = render_viewport(drugtree, clade, max_depth=1)
        names = expandable_nodes(payload)
        assert names
        for name in names:
            assert payload["nodes"]  # payload addressable by name
        assert all(isinstance(name, str) and name for name in names)

    def test_nothing_expandable_in_full_render(self, drugtree):
        payload = render_full(drugtree)
        assert expandable_nodes(payload) == []


def test_a_render_at_protein_family_size_walks_no_tree():
    """The focus is a lookup in the labeling's name map: rendering the
    last clade of a 2,400-leaf tree makes no preorder walk."""
    tree = birth_death_tree(2_400, seed=5)
    last = name_internal_clades(tree)[-1]
    drugtree = DrugTree(tree)
    walk = PhyloNode.preorder
    with mock.patch.object(PhyloNode, "preorder", autospec=True,
                           side_effect=walk) as preorder:
        payload = render_viewport(drugtree, last, max_depth=2)
        with pytest.raises(MobileError):
            render_viewport(drugtree, "not_a_node")
    assert preorder.call_count == 0
    assert payload["nodes"]
