"""Tests for the multi-source integration pipeline."""

import pytest

from repro.core import IntegrationPipeline
from repro.core.integrate import is_drug_like, ligand_row, protein_row
from repro.errors import QueryError
from repro.sources.activity import CompoundEntry
from repro.sources.annotation import AnnotationEntry
from repro.sources.protein import ProteinEntry
from repro.workloads import DatasetConfig, build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DatasetConfig(n_leaves=16, n_ligands=30, seed=9))


class TestRowMappers:
    def test_protein_row_merges_entry_and_annotation(self):
        entry = ProteinEntry("P1", "MKT", "Homo sapiens", family="old",
                             resolution_angstrom=1.8)
        annotation = AnnotationEntry("P1", ec_number="1.5.1.3",
                                     family="DHFR")
        row = protein_row("P1", entry, annotation)
        assert row["organism"] == "Homo sapiens"
        assert row["family"] == "DHFR"  # annotation wins
        assert row["ec_number"] == "1.5.1.3"
        assert row["resolution"] == 1.8

    def test_protein_row_tolerates_missing_records(self):
        row = protein_row("P1", None, None)
        assert row["protein_id"] == "P1"
        assert row["organism"] is None
        assert row["family"] is None

    def test_ligand_row_computes_drug_likeness(self):
        compound = CompoundEntry("L1", "CCO", 46.07, -0.1, 20.2,
                                 1, 1, 0, 0)
        row = ligand_row(compound)
        assert row["descriptors"]["is_drug_like"] is True

    @pytest.mark.parametrize("mw,logp,hbd,hba,expected", [
        (300.0, 2.0, 1, 3, True),      # no violations
        (600.0, 2.0, 1, 3, True),      # one violation still passes
        (600.0, 6.0, 1, 3, False),     # two violations fail
        (600.0, 6.0, 7, 12, False),    # four violations fail
    ])
    def test_is_drug_like(self, mw, logp, hbd, hba, expected):
        assert is_drug_like(mw, logp, hbd, hba) is expected


class TestPipeline:
    def test_batched_integration_covers_everything(self, dataset):
        drugtree, report = IntegrationPipeline(
            dataset.registry, mode="batched",
        ).build_drugtree(dataset.tree)
        assert report.proteins == dataset.config.n_leaves
        assert report.ligands > 0
        assert report.bindings == len(dataset.bindings)
        assert drugtree.binding_count == len(dataset.bindings)

    def test_per_item_produces_same_overlay(self, dataset):
        batched, _ = IntegrationPipeline(
            dataset.registry, mode="batched",
        ).build_drugtree(dataset.tree)
        per_item, _ = IntegrationPipeline(
            dataset.registry, mode="per_item",
        ).build_drugtree(dataset.tree)
        for table_name in ("proteins", "ligands", "bindings"):
            rows_a = sorted(map(repr,
                                batched.tables[table_name].scan_rows()))
            rows_b = sorted(map(repr,
                                per_item.tables[table_name].scan_rows()))
            assert rows_a == rows_b

    def test_batched_uses_far_fewer_roundtrips(self, dataset):
        _, batched = IntegrationPipeline(
            dataset.registry, mode="batched",
        ).build_drugtree(dataset.tree)
        _, per_item = IntegrationPipeline(
            dataset.registry, mode="per_item",
        ).build_drugtree(dataset.tree)
        assert batched.roundtrips * 5 < per_item.roundtrips
        assert batched.virtual_latency_s < per_item.virtual_latency_s

    def test_unknown_mode_rejected(self, dataset):
        with pytest.raises(QueryError):
            IntegrationPipeline(dataset.registry, mode="telepathy")


class TestTreeFromSources:
    @pytest.fixture(scope="class")
    def nj_tree(self, dataset):
        """The default (NJ) inference over the whole family, built once:
        it is the slow step and four tests read the same tree."""
        return IntegrationPipeline(
            dataset.registry).build_tree_from_sources()

    def test_nj_tree_covers_all_proteins(self, dataset, nj_tree):
        assert sorted(nj_tree.leaf_names()) == sorted(
            dataset.family.protein_ids
        )
        assert nj_tree.is_binary()

    def test_inferred_tree_close_to_truth(self, dataset, nj_tree):
        """At moderate divergence NJ should recover most of the true
        topology from the evolved sequences."""
        max_rf = 2 * (dataset.config.n_leaves - 3)
        assert nj_tree.robinson_foulds(dataset.tree) <= max_rf // 2

    def test_upgma_variant(self, dataset):
        pipeline = IntegrationPipeline(dataset.registry)
        tree = pipeline.build_tree_from_sources(method="upgma")
        depths = [leaf.distance_to_root() for leaf in tree.leaves()]
        assert max(depths) - min(depths) < 1e-9  # ultrametric

    def test_internal_clades_named(self, nj_tree):
        internal = [n for n in nj_tree.preorder() if not n.is_leaf]
        assert all(node.name for node in internal)

    def test_explicit_subset(self, dataset):
        pipeline = IntegrationPipeline(dataset.registry)
        subset = dataset.family.protein_ids[:5]
        tree = pipeline.build_tree_from_sources(protein_ids=subset)
        assert sorted(tree.leaf_names()) == sorted(subset)

    def test_inferred_tree_is_integrable(self, dataset, nj_tree):
        drugtree, report = IntegrationPipeline(
            dataset.registry).build_drugtree(nj_tree)
        assert drugtree.binding_count == len(dataset.bindings)

    def test_validation(self, dataset):
        pipeline = IntegrationPipeline(dataset.registry)
        with pytest.raises(QueryError):
            pipeline.build_tree_from_sources(method="parsimony")
        with pytest.raises(QueryError):
            pipeline.build_tree_from_sources(protein_ids=["one"])
        with pytest.raises(QueryError):
            pipeline.build_tree_from_sources(
                protein_ids=["ghost_a", "ghost_b"]
            )


class TestConcurrentMode:
    def test_concurrent_produces_same_overlay(self, dataset):
        batched, _ = IntegrationPipeline(
            dataset.registry, mode="batched",
        ).build_drugtree(dataset.tree)
        concurrent, _ = IntegrationPipeline(
            dataset.registry, mode="concurrent",
        ).build_drugtree(dataset.tree)
        for table_name in ("proteins", "ligands", "bindings"):
            rows_a = sorted(map(repr,
                                batched.tables[table_name].scan_rows()))
            rows_b = sorted(map(
                repr, concurrent.tables[table_name].scan_rows()))
            assert rows_a == rows_b

    def test_concurrent_is_at_least_twice_as_fast(self):
        # Fresh world (not the shared fixture): paged sources make the
        # round-trips fine-grained, which is the realistic shape —
        # a REST service pages its batch endpoint.
        world = build_dataset(
            DatasetConfig(n_leaves=16, n_ligands=30, seed=9)
        )
        for source in world.registry.sources():
            source.page_size = 8
        _, batched = IntegrationPipeline(
            world.registry, mode="batched",
        ).build_drugtree(world.tree)
        _, concurrent = IntegrationPipeline(
            world.registry, mode="concurrent",
        ).build_drugtree(world.tree)
        # Same round-trips, overlapped: >= 2x lower virtual latency on
        # the three-source workload (the E3 acceptance bar).
        assert concurrent.roundtrips <= batched.roundtrips
        assert (concurrent.virtual_latency_s * 2
                <= batched.virtual_latency_s)
        assert concurrent.overlap_saved_s > 0
        assert batched.overlap_saved_s == 0

    def test_explicit_scheduler_is_reused(self, dataset):
        from repro.sources import FetchScheduler

        scheduler = FetchScheduler(dataset.registry)
        pipeline = IntegrationPipeline(dataset.registry,
                                       mode="concurrent",
                                       scheduler=scheduler)
        pipeline.build_drugtree(dataset.tree)
        assert scheduler.stats.batches >= 2  # stage 1 + compounds
        assert pipeline.scheduler is scheduler
