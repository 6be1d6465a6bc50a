"""Query workload generation.

Produces the query mixes the experiments replay: one-off mixed
workloads (E1) and *navigation sessions* (E4) that mimic a scientist
drilling into the tree — start broad, narrow into child clades, re-ask
the same aggregates — which is exactly the access pattern semantic
caching exploits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.chem.generator import Ligand
from repro.core.query.ast import (
    AggregateSpec,
    Comparison,
    OrderBy,
    Query,
    SimilarityFilter,
    SubstructureFilter,
    SubtreeFilter,
)
from repro.errors import WorkloadError
from repro.workloads.families import ProteinFamily

#: Every query kind the generator can draw.
ALL_KINDS: tuple[str, ...] = (
    "subtree_filter", "clade_agg", "organism_filter", "property_range",
    "topk", "similarity", "substructure", "join",
)

#: The workload mix (kind → weight).
DEFAULT_MIX: dict[str, float] = {
    "subtree_filter": 0.25,
    "clade_agg": 0.25,
    "organism_filter": 0.15,
    "property_range": 0.10,
    "topk": 0.10,
    "similarity": 0.05,
    "join": 0.10,
}


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of one generated workload."""

    n_queries: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_queries < 1:
            raise WorkloadError("need at least one query")


class QueryGenerator:
    """Draws random queries shaped by a family and ligand library."""

    def __init__(self, family: ProteinFamily, ligands: list[Ligand],
                 seed: int = 0) -> None:
        if not family.clade_names:
            raise WorkloadError("family has no named clades")
        self.family = family
        self.ligands = ligands
        self.rng = random.Random(seed)

    # -- individual query kinds ------------------------------------------------

    def subtree_filter(self, clade: str | None = None) -> Query:
        clade = clade or self.rng.choice(self.family.clade_names)
        threshold = round(self.rng.uniform(5.0, 8.0), 1)
        return Query(
            predicates=(Comparison("p_affinity", ">=", threshold),),
            subtree=SubtreeFilter(clade),
        )

    def clade_agg(self, clade: str | None = None) -> Query:
        clade = clade or self.rng.choice(self.family.clade_names)
        return Query(
            aggregates=(
                AggregateSpec("count", "*"),
                AggregateSpec("mean", "p_affinity"),
                AggregateSpec("max", "p_affinity"),
            ),
            subtree=SubtreeFilter(clade),
        )

    def organism_filter(self) -> Query:
        organism = self.rng.choice(
            sorted(set(self.family.organisms.values()))
        )
        return Query(
            select=("protein_id", "ligand_id", "p_affinity"),
            predicates=(
                Comparison("organism", "=", organism),
                Comparison("potent", "=", True),
            ),
        )

    def property_range(self) -> Query:
        low = round(self.rng.uniform(150.0, 300.0), 1)
        high = low + self.rng.uniform(50.0, 200.0)
        return Query(
            select=("ligand_id", "smiles", "molecular_weight"),
            predicates=(
                Comparison("molecular_weight", ">=", low),
                Comparison("molecular_weight", "<=", round(high, 1)),
                Comparison("drug_like", "=", True),
            ),
        )

    def topk(self) -> Query:
        k = self.rng.choice((5, 10, 20))
        return Query(
            select=("ligand_id", "protein_id", "p_affinity"),
            order_by=OrderBy("p_affinity", descending=True),
            limit=k,
        )

    def similarity(self) -> Query:
        probe = self.rng.choice(self.ligands)
        threshold = round(self.rng.uniform(0.5, 0.8), 2)
        return Query(
            select=("ligand_id", "smiles"),
            similar=SimilarityFilter(probe.smiles, threshold),
        )

    #: Fragments drawn by the substructure query kind — the motifs a
    #: med-chem user actually greps a library for.
    FRAGMENTS = ("c1ccccc1", "c1ccncc1", "C(=O)O", "C(=O)N",
                 "C1CCNCC1", "C(F)(F)F", "c1cc[nH]c1")

    def substructure(self) -> Query:
        fragment = self.rng.choice(self.FRAGMENTS)
        return Query(
            select=("ligand_id", "smiles"),
            substructure=SubstructureFilter(fragment),
        )

    def join(self) -> Query:
        organism = self.rng.choice(
            sorted(set(self.family.organisms.values()))
        )
        return Query(
            select=("protein_id", "ligand_id", "p_affinity", "logp"),
            predicates=(
                Comparison("organism", "=", organism),
                Comparison("logp", "<=", round(self.rng.uniform(1.0, 4.0),
                                               1)),
            ),
        )

    _KINDS = {
        "subtree_filter": subtree_filter,
        "clade_agg": clade_agg,
        "organism_filter": organism_filter,
        "property_range": property_range,
        "topk": topk,
        "similarity": similarity,
        "substructure": substructure,
        "join": join,
    }

    def draw(self, kind: str) -> Query:
        try:
            maker = self._KINDS[kind]
        except KeyError:
            raise WorkloadError(f"unknown query kind {kind!r}") from None
        return maker(self)

    # -- workloads ------------------------------------------------------------

    def workload(self, config: WorkloadConfig) -> list[Query]:
        kinds, weights = zip(*DEFAULT_MIX.items())
        return [
            self.draw(self.rng.choices(kinds, weights=weights, k=1)[0])
            for _ in range(config.n_queries)
        ]

    def navigation_session(self, steps: int = 10,
                           revisit_probability: float = 0.3,
                           ) -> list[Query]:
        """A drill-down session over the tree.

        Starts at a top clade and walks toward the leaves; each step
        issues the clade aggregate plus a progressively *stricter*
        affinity filter for the current clade, and sometimes re-asks an
        earlier query verbatim. Only the verbatim revisits hit the
        semantic cache, which answers a query's own signature only.
        """
        if steps < 1:
            raise WorkloadError("session needs at least one step")
        labeled = _clade_children(self.family)
        current = self.family.clade_names[0]
        threshold = 5.0
        history: list[Query] = []
        session: list[Query] = []
        for _ in range(steps):
            if history and self.rng.random() < revisit_probability:
                session.append(self.rng.choice(history))
                continue
            aggregate = self.clade_agg(current)
            filtered = Query(
                predicates=(
                    Comparison("p_affinity", ">=", round(threshold, 1)),
                ),
                subtree=SubtreeFilter(current),
            )
            session.extend((aggregate, filtered))
            history.extend((aggregate, filtered))
            threshold = min(threshold + 0.3, 9.0)
            children = labeled.get(current, [])
            if children:
                current = self.rng.choice(children)
        return session


def _clade_children(family: ProteinFamily) -> dict[str, list[str]]:
    """Named internal children of every named internal node."""
    children: dict[str, list[str]] = {}
    for node in family.tree.preorder():
        if node.is_leaf or not node.name:
            continue
        named = [
            child.name for child in node.children
            if not child.is_leaf and child.name
        ]
        children[node.name] = named
    return children
