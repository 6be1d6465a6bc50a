"""The planner's choices, pinned: the same queries on the same worlds
plan to the same text and the same estimates, bit for bit.

A refactor of the planner, its cost model or its estimator must leave
this digest alone; a deliberate change to what the planner decides
re-captures it and says which plans moved. It covers every generator
kind, the four scan families of ``analytic_scan`` (the E13 shapes, with
several literals) and both load-generator query templates, on two small
worlds: each query's EXPLAIN text and ``repr((estimated_cost,
estimated_rows))``, so a cost that moves in its last bit moves the
digest. Every ``IN`` list is sorted before it is hashed (a set's
already prints sorted), so the digest is the same under any
``PYTHONHASHSEED``.
"""

import hashlib
import re

import pytest

from ledger.workloads.analytic_scan import SCAN_TEMPLATES
from repro.core import EngineConfig, QueryEngine
from repro.core.query import cost as cost_model
from repro.workloads import DatasetConfig, QueryGenerator, build_dataset
from repro.workloads.loadgen import _QUERY_TEMPLATES
from repro.workloads.queries import ALL_KINDS

#: sha256 of :func:`plan_digest`'s text, re-captured when a top-k by
#: ``p_affinity DESC`` within ``CLADE_TOP_K`` became a lookup of a tree
#: node's best bindings (the generator's ``topk`` draws and the clade
#: top-10 template moved; every other block was byte-identical).
PINNED = ("533f5ddaeeebbdacfe13ea90043b7d51"
          "b9ff9c87a8a2a2ba06595ab775b947fe")
WORLDS = (DatasetConfig(n_leaves=24, n_ligands=30, seed=1102),
          DatasetConfig(n_leaves=24, n_ligands=30, seed=1101))
DRAWS_PER_KIND = 6
THRESHOLDS = (5.0, 6.2, 7.5, 8.5)
IN_LIST = re.compile(r" IN \(([^)]*)\)")


def _sorted_in_lists(text: str) -> str:
    return IN_LIST.sub(
        lambda m: " IN (" + ", ".join(sorted(m[1].split(", "))) + ")", text)


def queries(dataset, seed: int) -> list:
    generator = QueryGenerator(dataset.family, dataset.ligands, seed=seed)
    drawn = [generator.draw(kind) for kind in ALL_KINDS
             for _ in range(DRAWS_PER_KIND)]
    drawn += [template.format(t=t) for template in SCAN_TEMPLATES.values()
              for t in THRESHOLDS]
    clades = dataset.family.clade_names
    drawn += [template.format(clade=clade, threshold=threshold)
              for template in _QUERY_TEMPLATES
              for clade in clades[::max(1, len(clades) // 6)]
              for threshold in THRESHOLDS[:3]]
    return drawn


def plan_digest() -> str:
    """Every pinned query's plan, one block each."""
    blocks = []
    for config in WORLDS:
        dataset = build_dataset(config)
        engine = QueryEngine(dataset.drugtree(),
                             EngineConfig(use_semantic_cache=False))
        for query in queries(dataset, config.seed):
            plan = engine.execute(query).plan
            blocks.append(plan.explain())
            blocks.append(repr((plan.estimated_cost, plan.estimated_rows)))
    return _sorted_in_lists("\n".join(blocks))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_plans_match_the_pin():
    assert sha256(plan_digest()) == PINNED


def test_a_planted_cost_change_moves_the_pin():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cost_model, "FILTER_ROW_COST", 0.26)
        assert sha256(plan_digest()) != PINNED
