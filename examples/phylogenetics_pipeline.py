"""The protein-motivated pipeline: from raw sequences to DrugTree.

The other examples start from a known tree; this one does what the
original system had to do — infer the phylogeny from the federation's
own sequence data, and only then hang the ligand overlay on it:

1. pull sequences from the (simulated) structure source;
2. infer a neighbor-joining tree with midpoint rooting;
3. integrate the overlay onto the inferred tree and query it.

Run with::

    python examples/phylogenetics_pipeline.py
"""

from repro import DatasetConfig, QueryEngine, build_dataset
from repro.bio import ascii_tree
from repro.core import IntegrationPipeline


def main() -> None:
    dataset = build_dataset(DatasetConfig(n_leaves=14, n_ligands=30,
                                          seed=27))
    pipeline = IntegrationPipeline(dataset.registry)

    # -- 1+2. sequences -> distances -> rooted NJ tree ----------------------
    tree = pipeline.build_tree_from_sources(dataset.tree.leaf_names())
    print(f"inferred tree: {tree.leaf_count} proteins, "
          f"RF distance to the (hidden) true tree = "
          f"{tree.robinson_foulds(dataset.tree)}")
    print(ascii_tree(tree, max_depth=3))

    # -- 3. overlay + query on the inferred tree ----------------------------
    drugtree, report = pipeline.build_drugtree(tree)
    engine = QueryEngine(drugtree)
    protein = tree.leaf_names()[0]
    home_clade = next(
        node.name for node in tree.preorder()
        if node.name and not node.is_leaf
        and protein in {leaf.name for leaf in node.leaves()}
        and node.leaf_count() <= 4
    )
    result = engine.execute(
        "SELECT ligand_id, protein_id, p_affinity FROM bindings "
        f"WHERE potent = true IN SUBTREE '{home_clade}' "
        "ORDER BY p_affinity DESC LIMIT 5"
    )
    print(f"\npotent chemical matter near {protein} "
          f"(its clade {home_clade}):")
    for row in result.rows:
        print(f"  {row['ligand_id']} -> {row['protein_id']} "
              f"(pAff {row['p_affinity']:.2f})")


if __name__ == "__main__":
    main()
