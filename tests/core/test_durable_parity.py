"""Differential suite: durable mode must be invisible to queries.

The same deterministic world is integrated twice — once purely
in-memory, once in durable mode over a temp directory with an
aggressive flush threshold (so real SSTables happen mid-integration,
several level-0 segments that recovery merges) — and every workload family the generator can draw
must come back bit-identical under both execution modes. Then the
durable world is closed and *recovered from disk* into a third
DrugTree, and the whole matrix must still agree: recovery replays the
committed state exactly.
"""

import dataclasses

import pytest

from repro.core import DrugTree, EngineConfig, QueryEngine
from repro.faults import Crash, CrashPoint, FaultSchedule
from repro.obs import MetricsRegistry, set_metrics
from repro.storage.durable import StorageConfig
from repro.workloads import DatasetConfig, QueryGenerator, build_dataset
from repro.workloads.queries import ALL_KINDS

WORLD = DatasetConfig(n_leaves=16, n_ligands=24, seed=17)


@pytest.fixture(autouse=True)
def fresh_state():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def durable_config(tmp_path, **overrides):
    kwargs = {
        "durable": True,
        "data_dir": str(tmp_path / "db"),
        "fsync": "never",
        # Aggressive enough that integration crosses several flushes,
        # leaving several segments for recovery to merge.
        "memtable_flush_bytes": 4 * 1024,
    }
    kwargs.update(overrides)
    return StorageConfig(**kwargs)


def workload(dataset, per_kind=3):
    queries = []
    for kind in ALL_KINDS:
        for seed in range(per_kind):
            generator = QueryGenerator(dataset.family, dataset.ligands,
                                       seed=seed)
            queries.append(generator.draw(kind))
    return queries


def run_workload(drugtree, dataset, mode):
    engine = QueryEngine(drugtree, EngineConfig(
        use_semantic_cache=False, execution_mode=mode,
    ))
    return [engine.execute(query).rows for query in workload(dataset)]


class TestDurableParity:
    @pytest.fixture()
    def worlds(self, tmp_path):
        memory_dataset = build_dataset(WORLD)
        memory_tree, _ = memory_dataset.integrate()
        durable_dataset = build_dataset(WORLD)
        durable_tree, _ = durable_dataset.integrate(
            storage=durable_config(tmp_path)
        )
        yield memory_dataset, memory_tree, durable_dataset, durable_tree
        durable_tree.close()

    def test_live_durable_matches_memory_both_modes(self, worlds):
        memory_dataset, memory_tree, durable_dataset, durable_tree = worlds
        # Integration genuinely exercised the LSM path.
        assert durable_tree.database.segments
        baseline = run_workload(memory_tree, memory_dataset, "row")
        assert run_workload(durable_tree, durable_dataset, "row") \
            == baseline
        assert run_workload(durable_tree, durable_dataset, "vectorized") \
            == baseline

    def test_recovered_tree_matches_memory_both_modes(self, worlds,
                                                      tmp_path):
        memory_dataset, memory_tree, durable_dataset, durable_tree = worlds
        durable_tree.close()
        reopened_dataset = build_dataset(WORLD)
        reopened_tree = DrugTree(reopened_dataset.tree,
                                 storage=durable_config(tmp_path))
        reopened_tree.create_default_indexes()
        try:
            assert reopened_tree.binding_count \
                == memory_tree.binding_count
            assert reopened_tree.ligand_count == memory_tree.ligand_count
            baseline = run_workload(memory_tree, memory_dataset, "row")
            assert run_workload(reopened_tree, reopened_dataset,
                                "row") == baseline
            assert run_workload(reopened_tree, reopened_dataset,
                                "vectorized") == baseline
        finally:
            reopened_tree.close()

    def test_recovered_aggregates_and_fingerprints_match(self, worlds,
                                                         tmp_path):
        memory_dataset, memory_tree, durable_dataset, durable_tree = worlds
        durable_tree.close()
        reopened_tree = DrugTree(build_dataset(WORLD).tree,
                                 storage=durable_config(tmp_path))
        try:
            for clade in memory_dataset.family.clade_names:
                assert reopened_tree.clade_stats(clade) \
                    == memory_tree.clade_stats(clade)
            assert set(reopened_tree.fingerprints) \
                == set(memory_tree.fingerprints)
            for ligand_id, fingerprint in memory_tree.fingerprints.items():
                assert reopened_tree.fingerprints[ligand_id].bits \
                    == fingerprint.bits
        finally:
            reopened_tree.close()


class TestCrashRecoveryEndToEnd:
    def test_crash_during_integration_recovers_committed_prefix(
            self, tmp_path):
        dataset = build_dataset(WORLD)
        storage = durable_config(tmp_path, fsync="always")
        drugtree = DrugTree(dataset.tree, storage=storage)
        for index, protein_id in enumerate(dataset.family.protein_ids):
            if index == 10:
                break
            drugtree.add_protein(protein_id=protein_id)
        drugtree.database.set_schedule(
            FaultSchedule([Crash(at="db.after_append")]))
        with pytest.raises(CrashPoint):
            drugtree.add_ligand(
                "LIG-crash", dataset.ligands[0].smiles,
                dataclasses.asdict(dataset.ligands[0].descriptors),
            )
        # No close: reopen straight from disk, as after a kill -9.
        recovered = DrugTree(build_dataset(WORLD).tree,
                             storage=durable_config(tmp_path))
        try:
            assert recovered.protein_count == 10
            # The crashed ligand insert was WAL-committed before the
            # kill, so recovery replays it.
            assert recovered.tables["ligands"].row_count == 1
            assert "LIG-crash" in recovered.fingerprints
        finally:
            recovered.close()

    def test_default_config_stays_in_memory(self):
        dataset = build_dataset(WORLD)
        drugtree, _ = dataset.integrate()
        assert drugtree.database is None
        assert drugtree.tables["bindings"].durable is None
        drugtree.close()  # no-op, must not raise
