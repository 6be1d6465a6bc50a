"""Tests for ASCII tree rendering."""

from repro.bio import ascii_tree, parse_newick
from repro.bio.simulate import birth_death_tree


class TestAsciiTree:
    def test_every_node_on_its_own_line(self):
        tree = parse_newick("((a,b)ab,(c,d)cd)root;")
        text = ascii_tree(tree)
        lines = text.splitlines()
        assert len(lines) == tree.node_count
        for name in ("root", "ab", "cd", "a", "b", "c", "d"):
            assert any(name in line for line in lines)

    def test_unnamed_nodes_get_bullet(self):
        tree = parse_newick("((a,b),(c,d));")
        assert "•" in ascii_tree(tree)

    def test_branch_lengths_shown_on_request(self):
        tree = parse_newick("((a:1.5,b:2)ab:1,c:3);")
        text = ascii_tree(tree, show_branch_lengths=True)
        assert "a:1.5" in text
        assert "c:3" in text
        plain = ascii_tree(tree)
        assert "1.5" not in plain

    def test_max_depth_collapses_with_leaf_count(self):
        tree = parse_newick("((a,b)ab,((c,d)cd,e)cde)root;")
        text = ascii_tree(tree, max_depth=1)
        assert "… (2 leaves)" in text
        assert "… (3 leaves)" in text
        assert "c" not in text.replace("clade", "").replace(
            "cde", "").replace("cd", "")

    def test_annotation_appended(self):
        tree = parse_newick("((a,b)ab,c)root;")
        text = ascii_tree(tree,
                          annotate=lambda node: "<LEAF>"
                          if node.is_leaf else "")
        assert text.count("<LEAF>") == 3

    def test_connectors_consistent(self):
        tree = birth_death_tree(10, seed=4)
        text = ascii_tree(tree)
        # Every non-root line starts with tree-drawing characters.
        for line in text.splitlines()[1:]:
            assert line.lstrip("│ ├└─")[0:1] != " "

