"""Known gap, pinned: cluster statistics are frozen at ``from_drugtree``.

The single-node engine re-ANALYZEs a table after more than
max(16, 10 %) mutations; the cluster keeps the statistics it was
sharded with. Once the two disagree the planner can pick a different
join order, and a ``join`` read returns the same rows in another order.
Nothing is lost or invented — the first test holds the multiset — but
the bit-identical contract of ``test_parity.py`` does not survive a
long write stream. Who pays for a cluster-wide ANALYZE is a design
decision (docs/CLUSTER.md, "Known limits"); when it lands the strict
xfail below starts passing and must be removed.
"""

import functools
import random

import pytest

from repro.workloads import QueryGenerator
from repro.workloads.queries import ALL_KINDS
from tests.cluster.test_parity import make_pair
from tests.cluster.test_view_delta import insert_binding

INSERTS = 200
READ_EVERY = 10


@functools.cache
def reads_after_drift():
    """``(insert count, kind, cluster rows, single-node rows)`` of
    every kind drawn after each 10th of 200 mirrored inserts."""
    dataset, single, clustered = make_pair(seed=7)
    generator = QueryGenerator(dataset.family, dataset.ligands, seed=7)
    rng = random.Random(7)
    proteins = dataset.family.protein_ids
    ligands = [ligand.ligand_id for ligand in dataset.ligands]
    reads = []
    for count in range(1, INSERTS + 1):
        insert_binding(clustered, single.drugtree, rng.choice(proteins),
                       rng.choice(ligands),
                       round(rng.uniform(3.0, 10.0), 3))
        if count % READ_EVERY:
            continue
        for kind in ALL_KINDS:
            query = generator.draw(kind)
            reads.append((count, kind, clustered.execute(query).rows,
                          single.execute(query).rows))
    return reads


def test_drifted_statistics_never_change_the_multiset():
    for count, kind, got, expected in reads_after_drift():
        assert sorted(map(repr, got)) == sorted(map(repr, expected)), \
            (count, kind)


@pytest.mark.xfail(strict=True, reason=(
    "cluster statistics are frozen at from_drugtree while the "
    "single-node engine re-ANALYZEs: join rows come back in another "
    "order once the estimates drift (docs/CLUSTER.md, Known limits)"))
def test_row_order_survives_a_long_write_stream():
    differing = [(count, kind)
                 for count, kind, got, expected in reads_after_drift()
                 if got != expected]
    assert differing == []
