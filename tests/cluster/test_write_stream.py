"""A long write stream through the cluster and its single-node mirror.

Each cluster view prices its plans from its own indexes, which hold
only the partitions the view read; the single node prices from all
rows. The estimates differ, so the planner may pick another plan, but
row order is not a property of the plan (``docs/DTQL.md``, "Row
order"), and a view holds its rows under their global row ids. So
every read returns the single node's rows, in its order, after every
tenth of 200 mirrored inserts.
"""

import random

import pytest

from repro.cluster.router import Router
from repro.workloads import QueryGenerator
from repro.workloads.queries import ALL_KINDS
from tests.cluster.test_parity import make_pair
from tests.cluster.test_view_delta import insert_binding
from tests.storage.oracles import with_planted_bug

INSERTS = 200
READ_EVERY = 10


def test_a_long_write_stream_never_changes_an_answer():
    check_write_stream()


def test_planted_bug_a_write_bumps_its_neighbours_version(monkeypatch):
    planted = with_planted_bug(Router.write, (
        "self.partition_versions[pid] = ",
        "self.partition_versions[(pid + 1) % len(partitioner.partitions)]"
        " = "))
    monkeypatch.setattr(Router, "write", planted)
    with pytest.raises(AssertionError):
        check_write_stream()


def check_write_stream():
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
            assert got == expected, (count, kind)
