"""The one append path against a per-row reference.

Any binding rows, split into any batches — one-row batches, batches
handed to ``Table.append_rows``, and durable inserts staged inside
nested ``Database.batch()`` groups — leave the table, its column store
and typed mirrors, every index, the value counts, the clade statistics
(float totals bit for bit) and ``DrugTree.data_version`` exactly as
inserting the rows one at a time does (``tests/storage/oracles.py``).
"""

import math
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bio import parse_newick
from repro.chem.affinity import ActivityType, BindingRecord
from repro.core import DrugTree
from repro.errors import QueryError, StorageError
from repro.obs import get_metrics
from repro.storage.durable import StorageConfig
from tests.storage.oracles import PerRowBindings, clade_states

TREE = "(((a:1,b:1)ab:1,c:1)abc:1,((d:1,e:1)de:1,f:1)def:1)root;"
LEAVES = ("a", "b", "c", "d", "e", "f")
SORTED_ON = ("leaf_pre", "p_affinity")
HASHED_ON = ("protein_id", "ligand_id")

#: p_affinity carries every bit (a per-leaf partial sum rounds
#: differently); value_nm may be infinite. No NaN: validation refuses
#: it (a NaN refusing a mirror mid-batch is
#: ``tests/core/test_vectorized_typed.py``'s ``nan`` poison).
BINDING = st.fixed_dictionaries({
    "ligand_id": st.sampled_from(["L1", "L2", "L3"]),
    "protein_id": st.sampled_from(LEAVES),
    "activity_type": st.sampled_from(["Ki", "Kd"]),
    "value_nm": st.one_of(st.floats(0.001, 1e6), st.just(math.inf)),
    "p_affinity": st.one_of(st.floats(0.0, 15.0),
                            st.sampled_from([0.1, 0.2, 0.3, 7.0])),
    "potent": st.booleans(),
})
#: How one batch reaches the table.
SHAPES = st.sampled_from(["one_by_one", "batch", "nested"])
BATCHES = st.lists(st.tuples(st.lists(BINDING, max_size=12), SHAPES),
                   max_size=8)


def make_drugtree(data_dir=None):
    storage = None if data_dir is None else StorageConfig(
        durable=True, data_dir=data_dir, fsync="never")
    drugtree = DrugTree(parse_newick(TREE), storage=storage)
    drugtree.create_default_indexes()
    drugtree.tables["bindings"].column_store()
    return drugtree


def reference_for(drugtree):
    bindings = drugtree.tables["bindings"]
    return PerRowBindings(bindings.schema, drugtree.tree,
                          drugtree.labeling, SORTED_ON, HASHED_ON,
                          counted=("potent",))


def with_leaf(drugtree, values):
    return {**values,
            "leaf_pre": drugtree.labeling.leaf_position(values["protein_id"])}


def append_batches(drugtree, reference, batches):
    """In memory: each batch is one ``append_rows`` call, or one call
    per row."""
    bindings = drugtree.tables["bindings"]
    for rows, shape in batches:
        pairs = [(bindings.next_row_id + offset,
                  bindings.schema.validate_row(with_leaf(drugtree, values)))
                 for offset, values in enumerate(rows)]
        if shape == "one_by_one":
            for pair in pairs:
                bindings.append_rows([pair])
        else:
            bindings.append_rows(pairs)
        for pair in pairs:
            reference.insert(*pair)


def staged_batches(drugtree, reference, batches):
    """Durable: each batch is inserted row by row inside one group, or
    inside a group with a nested group for its second half, or outside
    any group (a one-row append per insert)."""
    bindings = drugtree.tables["bindings"]
    database = drugtree.database
    for rows, shape in batches:
        values = [with_leaf(drugtree, row) for row in rows]
        if shape == "one_by_one":
            ids = [bindings.insert(row) for row in values]
        else:
            half = len(values) // 2 if shape == "nested" else len(values)
            with database.batch():
                ids = [bindings.insert(row) for row in values[:half]]
                with database.batch():
                    ids += [bindings.insert(row) for row in values[half:]]
        for row_id, row in zip(ids, values):
            reference.insert(row_id, bindings.schema.validate_row(row))


def same_float(left, right):
    return float(left).hex() == float(right).hex()


def assert_matches(drugtree, reference):
    bindings = drugtree.tables["bindings"]
    assert list(bindings.scan()) == list(reference.rows.items())
    assert len(bindings) == len(reference.rows)
    store = bindings.column_store()
    assert store._row_ids == list(reference.rows)
    for name, values in reference.columns.items():
        assert store.column(name) == values or all(
            held is value or held == value
            for held, value in zip(store.column(name), values)), name
    for name, held in reference.mirrors.items():
        mirror = store.typed(name)
        if held is None:
            assert mirror is None, name
            continue
        assert mirror is not None, name
        data, valid = mirror
        assert len(data) >= len(held)
        for position, (present, value) in enumerate(held):
            assert (True if valid is None else bool(valid[position])) \
                == present, (name, position)
            if present:
                assert same_float(data[position], value), (name, position)
    for name, flat in reference.sorted.items():
        index = bindings.index_on(name, require_range=True)
        keys = sorted({key for key in reference.columns[name]
                       if key is not None})
        for key in keys:
            assert index.lookup(key) == flat.lookup(key)
        for low, high in zip(keys, keys[len(keys) // 2:]):
            for flags in ((True, True), (False, True), (True, False)):
                assert index.range(low, high, *flags) \
                    == flat.range(low, high, *flags)
                assert index.count(low, high, *flags) \
                    == flat.count(low, high, *flags)
            assert list(index.ordered(True, low, high)) \
                == list(flat.ordered(True, low, high))
        assert list(index.ordered()) == list(flat.ordered())
        assert list(index.ordered(True)) == list(flat.ordered(True))
        assert index.count() == flat.count()
    for name, buckets in reference.hashed.items():
        index = bindings.index_on(name)
        for key, row_ids in buckets.items():
            assert index.lookup(key) == row_ids
            assert index.count(key) == len(row_ids)
        assert index.distinct() == len(buckets)
    for name, counts in reference.counts.items():
        assert bindings.value_counts(name) == counts
    assert clade_states(drugtree.clade_aggregates) \
        == reference.clade_states()
    assert drugtree.data_version == reference.version


SETTINGS = settings(deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(BATCHES)
def test_appended_batches_equal_per_row_inserts(batches):
    drugtree = make_drugtree()
    reference = reference_for(drugtree)
    append_batches(drugtree, reference, batches)
    assert_matches(drugtree, reference)


@settings(SETTINGS, max_examples=40)
@given(BATCHES)
def test_staged_durable_batches_equal_per_row_inserts(batches):
    with tempfile.TemporaryDirectory() as data_dir:
        drugtree = make_drugtree(data_dir)
        reference = reference_for(drugtree)
        staged_batches(drugtree, reference, batches)
        assert_matches(drugtree, reference)
        drugtree.close()


# -- refusing before applying --------------------------------------------------

def loaded_drugtree():
    """An in-memory overlay with a protein per leaf and six bindings."""
    drugtree = make_drugtree()
    for leaf in LEAVES:
        drugtree.add_protein(leaf)
    bindings = drugtree.tables["bindings"]
    for offset, leaf in enumerate(LEAVES):
        bindings.insert(with_leaf(drugtree, {
            "ligand_id": "L1", "protein_id": leaf, "activity_type": "Ki",
            "value_nm": 10.0, "p_affinity": 8.0 + offset / 10,
            "potent": True}))
    return drugtree


def observed(drugtree):
    """Everything a refused load must leave as it was."""
    return ({name: (list(table.scan()), table.next_row_id)
             for name, table in drugtree.tables.items()},
            drugtree.data_version, clade_states(drugtree.clade_aggregates),
            drugtree.clade_stats("root"), drugtree.protein_count)


def binding_pairs(drugtree, row_ids):
    bindings = drugtree.tables["bindings"]
    return [(row_id, bindings.get(row_id % len(LEAVES))) for row_id in row_ids]


class TestRefusedBeforeApplied:
    """A row id that is not above every id issued so far refuses the
    whole list, and nothing of it is applied: not the rows before it,
    and, for ``load_rows``, not the tables before its own."""

    def test_a_bad_id_mid_list_leaves_the_table_as_it_was(self):
        drugtree = loaded_drugtree()
        before = observed(drugtree)
        pairs = binding_pairs(drugtree, [6, 7, 3, 8])
        with pytest.raises(StorageError, match="row 3 is not above"):
            drugtree.tables["bindings"].append_rows(pairs, log=False)
        assert observed(drugtree) == before

    def test_a_bad_id_in_one_table_loads_no_table(self):
        drugtree = loaded_drugtree()
        before = observed(drugtree)
        proteins = drugtree.tables["proteins"]
        fresh_protein = (proteins.next_row_id,
                         proteins.schema.validate_row({
                             "protein_id": "zz", "leaf_pre": 0}))
        with pytest.raises(StorageError, match="row 7 is not above"):
            drugtree.load_rows({
                "proteins": [fresh_protein],
                "bindings": binding_pairs(drugtree, [6, 8, 7, 9]),
            })
        assert observed(drugtree) == before
        # The same rows with ascending ids load whole.
        assert drugtree.load_rows({
            "proteins": [fresh_protein],
            "bindings": binding_pairs(drugtree, [6, 7, 8, 9]),
        }) == 5
        assert drugtree.data_version == before[1] + 5

    def test_an_unknown_protein_rejects_every_binding_before_any_is_logged(
            self, tmp_path):
        drugtree = make_drugtree(str(tmp_path / "db"))
        drugtree.add_protein("a")
        records = [BindingRecord("L1", "a", ActivityType.KI, 10.0),
                   BindingRecord("L1", "b", ActivityType.KI, 10.0)]
        appends = get_metrics().counter("wal.appends").value
        with pytest.raises(QueryError, match="unknown protein 'b'"):
            drugtree.add_bindings(records)
        assert get_metrics().counter("wal.appends").value == appends
        assert drugtree.binding_count == 0
        assert drugtree.add_bindings(records[:1]) == range(0, 1)
        drugtree.close()
