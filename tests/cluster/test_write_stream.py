"""A long write stream through the cluster and its single-node mirror.

Each cluster view prices its plans from its own indexes, which hold
only the partitions the view read; the single node prices from all
rows. The estimates differ, so the planner may pick another join order
and return the same rows in another order: row order is a property of
the plan, not yet a contract. What every read must keep is the
multiset of rows, after every tenth of 200 mirrored inserts.
"""

import random

from repro.workloads import QueryGenerator
from repro.workloads.queries import ALL_KINDS
from tests.cluster.test_parity import make_pair
from tests.cluster.test_view_delta import insert_binding

INSERTS = 200
READ_EVERY = 10


def test_a_long_write_stream_never_changes_the_multiset():
    dataset, single, clustered = make_pair(seed=7)
    generator = QueryGenerator(dataset.family, dataset.ligands, seed=7)
    rng = random.Random(7)
    proteins = dataset.family.protein_ids
    ligands = [ligand.ligand_id for ligand in dataset.ligands]
    for count in range(1, INSERTS + 1):
        insert_binding(clustered, single.drugtree, rng.choice(proteins),
                       rng.choice(ligands),
                       round(rng.uniform(3.0, 10.0), 3))
        if count % READ_EVERY:
            continue
        for kind in ALL_KINDS:
            query = generator.draw(kind)
            got = clustered.execute(query).rows
            expected = single.execute(query).rows
            assert sorted(map(repr, got)) == sorted(map(repr, expected)), \
                (count, kind)
