"""Tests for the DrugTree facade."""

import contextlib
import sys
import threading

import pytest

from repro.bio import parse_newick
from repro.chem import ActivityType, BindingRecord
from repro.core import DrugTree
from repro.core.drugtree import STALE_MIN_MUTATIONS
from repro.errors import QueryError
from repro.storage.statistics import TableCounts, analyze


@pytest.fixture
def tree():
    return parse_newick("((a:1,b:1)ab:1,(c:1,d:1)cd:1)root;")


def _descriptors(mw=250.0):
    return {
        "molecular_weight": mw, "logp": 2.0, "tpsa": 40.0,
        "hbd": 1, "hba": 3, "rotatable_bonds": 2, "ring_count": 1,
        "is_drug_like": True,
    }


class TestPopulation:
    def test_add_protein_maps_to_leaf(self, tree):
        drugtree = DrugTree(tree)
        drugtree.add_protein("c", organism="Homo sapiens")
        row = next(drugtree.tables["proteins"].scan_rows())
        table = drugtree.tables["proteins"]
        assert table.value(row, "leaf_pre") == \
            drugtree.labeling.leaf_position("c")

    def test_add_protein_unknown_leaf(self, tree):
        drugtree = DrugTree(tree)
        with pytest.raises(Exception):
            drugtree.add_protein("zz")

    def test_duplicate_protein_rejected(self, tree):
        drugtree = DrugTree(tree)
        drugtree.add_protein("a")
        with pytest.raises(QueryError, match="already added"):
            drugtree.add_protein("a")

    def test_add_ligand_computes_fingerprint(self, tree):
        drugtree = DrugTree(tree)
        drugtree.add_ligand("L1", "CCO", _descriptors())
        assert "L1" in drugtree.fingerprints
        assert drugtree.fingerprints["L1"].popcount > 0

    def test_duplicate_ligand_rejected(self, tree):
        drugtree = DrugTree(tree)
        drugtree.add_ligand("L1", "CCO", _descriptors())
        with pytest.raises(QueryError, match="already added"):
            drugtree.add_ligand("L1", "CCO", _descriptors())

    def test_binding_requires_known_protein(self, tree):
        drugtree = DrugTree(tree)
        record = BindingRecord("L1", "a", ActivityType.KI, 10.0)
        with pytest.raises(QueryError, match="unknown protein"):
            drugtree.add_binding(record)
        drugtree.add_protein("a")
        drugtree.add_binding(record)
        assert drugtree.binding_count == 1

    def test_counts(self, tree):
        drugtree = DrugTree(tree)
        drugtree.add_protein("a")
        drugtree.add_ligand("L1", "CCO", _descriptors())
        drugtree.add_binding(
            BindingRecord("L1", "a", ActivityType.KI, 10.0)
        )
        assert drugtree.leaf_count == 4
        assert drugtree.protein_count == 1
        assert drugtree.ligand_count == 1
        assert drugtree.binding_count == 1


class TestBuildAndDesign:
    def test_build_creates_indexes_and_stats(self, tree):
        drugtree = DrugTree.build(
            tree,
            proteins=[{"protein_id": leaf} for leaf in "abcd"],
            ligands=[{"ligand_id": "L1", "smiles": "CCO",
                      "descriptors": _descriptors()}],
            bindings=[BindingRecord("L1", "a", ActivityType.KI, 10.0)],
        )
        assert drugtree.tables["bindings"].index_on("leaf_pre",
                                                    require_range=True)
        assert drugtree.statistics["bindings"].row_count == 1

    def test_statistics_refresh_at_staleness_threshold(self, tree):
        # A single mutation is below the staleness threshold: slightly
        # stale statistics are kept (they only perturb cost estimates).
        drugtree = DrugTree.build(
            tree, proteins=[{"protein_id": leaf} for leaf in "abcd"],
        )
        drugtree.add_binding(
            BindingRecord("L1", "a", ActivityType.KI, 10.0)
        )
        assert drugtree.statistics["bindings"].row_count == 0
        assert "bindings" not in drugtree.stale_tables()
        # Crossing the threshold marks the table stale and the next
        # statistics read re-ANALYZEs just that table.
        for _ in range(STALE_MIN_MUTATIONS):
            drugtree.add_binding(
                BindingRecord("L1", "a", ActivityType.KI, 10.0)
            )
        assert "bindings" in drugtree.stale_tables()
        epoch_before = drugtree.stats_epoch
        stats_after = drugtree.statistics
        assert stats_after["bindings"].row_count == STALE_MIN_MUTATIONS + 1
        assert drugtree.stats_epoch > epoch_before
        assert drugtree.stale_tables() == []

    def test_a_row_inserted_during_reanalyze_stays_pending(self, tree):
        # The writer gets in between re-ANALYZE's snapshot and its
        # return: the row is not in the statistics, so it must still
        # count towards the next threshold.
        drugtree = DrugTree.build(
            tree, proteins=[{"protein_id": leaf} for leaf in "abcd"],
        )
        record = BindingRecord("L1", "a", ActivityType.KI, 10.0)
        for _ in range(STALE_MIN_MUTATIONS + 1):
            drugtree.add_binding(record)
        bindings = drugtree.tables["bindings"]
        scan_rows = bindings.scan_rows

        def scan_then_insert():
            rows = scan_rows()
            bindings.scan_rows = scan_rows
            drugtree.add_binding(record)
            return rows

        bindings.scan_rows = scan_then_insert
        counted = STALE_MIN_MUTATIONS + 1
        assert drugtree.statistics["bindings"].row_count == counted
        for _ in range(STALE_MIN_MUTATIONS):
            drugtree.add_binding(record)
        # One row past the threshold: the slipped-in one is pending.
        assert "bindings" in drugtree.stale_tables()
        assert drugtree.statistics["bindings"].row_count \
            == bindings.row_count == counted + STALE_MIN_MUTATIONS + 1

    def test_mutation_listener_fires(self, tree):
        # Every row any overlay table takes bumps the data version once;
        # reads and rejected inserts leave it alone.
        drugtree = DrugTree(tree)
        assert drugtree.data_version == 0
        drugtree.add_protein("a")
        assert drugtree.data_version == 1
        drugtree.add_binding(BindingRecord("L1", "a", ActivityType.KI, 10.0))
        assert drugtree.data_version == 2
        drugtree.bindings_for_protein("a")
        with pytest.raises(QueryError):
            drugtree.add_protein("a")
        assert drugtree.data_version == 2

    def test_bindings_for_protein(self, tree):
        drugtree = DrugTree.build(
            tree,
            proteins=[{"protein_id": leaf} for leaf in "abcd"],
            bindings=[
                BindingRecord("L1", "a", ActivityType.KI, 10.0),
                BindingRecord("L2", "a", ActivityType.KD, 20.0),
                BindingRecord("L1", "b", ActivityType.KI, 30.0),
            ],
        )
        rows = drugtree.bindings_for_protein("a")
        assert {row["ligand_id"] for row in rows} == {"L1", "L2"}


def _reanalyze_while_inserting(tree, readers=4, rows=1500):
    """Real threads, a switch every microsecond: *readers* threads read
    ``DrugTree.statistics`` (re-ANALYZEing whenever the table is stale)
    while one thread inserts *rows* bindings. Returns the errors raised
    and, once every thread has stopped, one more re-ANALYZE of the
    bindings next to a full ANALYZE of them."""
    drugtree = DrugTree.build(
        tree, proteins=[{"protein_id": leaf} for leaf in "abcd"],
    )
    errors: list[BaseException] = []
    done = threading.Event()

    def reader() -> None:
        try:
            while not done.is_set():
                stats = drugtree.statistics["bindings"]
                assert stats.column("ligand_id").null_count == 0
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    def writer() -> None:
        try:
            for i in range(rows):
                drugtree.add_binding(BindingRecord(
                    f"L{i % 7}", "abcd"[i % 4], ActivityType.KI,
                    float(1 + i % 97)))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(readers)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    bindings = drugtree.tables["bindings"]
    assert bindings.row_count == rows
    return (errors, drugtree._analyze_table("bindings"),
            analyze(bindings))


class TestConcurrentReanalyze:
    def test_kept_counts_survive_concurrent_readers(self, tree):
        for _ in range(3):
            errors, reanalyzed, full = _reanalyze_while_inserting(tree)
            assert errors == []
            assert reanalyzed == full
            assert repr(reanalyzed) == repr(full)

    def test_planted_fold_without_the_lock_is_caught(self, tree,
                                                     monkeypatch):
        init = TableCounts.__init__

        def unlocked(self, width):
            init(self, width)
            self._lock = contextlib.nullcontext()

        monkeypatch.setattr(TableCounts, "__init__", unlocked)
        # Two readers must fold the same rows at once: a few rounds so
        # that missing it needs every one of them to go by luck.
        for _ in range(20):
            errors, reanalyzed, full = _reanalyze_while_inserting(tree)
            if errors or reanalyzed != full:
                return
        pytest.fail("a fold without the lock went unnoticed")
