"""A cached cluster view that absorbs a write ≡ one built from scratch.

After a write the next read quorum-reads again; a cached view whose
rows all came back unchanged takes just the new rows through
``DrugTree.load_rows`` instead of being rebuilt. The state machine
checks the equivalence that makes that safe — tables, scan order,
indexes, column stores, clade aggregates and fingerprints of the
served view equal a fresh build's after every read, and the
answer equals the single-node mirror's — under inserts, a crashed
replica, healing and anti-entropy. The directed cases pin each way a
view must *refuse* to absorb, and one planted bug per guard proves the
suite would notice the guard missing.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.core.drugtree as drugtree_module
from repro.cluster import ClusterConfig, ClusterEngine
from repro.core import EngineConfig, QueryEngine
from repro.core.query.ast import Comparison
from repro.core.query.cards import MIN_ROWS
from repro.core.drugtree import DrugTree
from repro.errors import StorageError
from repro.faults import FaultSchedule, Outage
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.storage.table import Table
from repro.workloads import DatasetConfig, QueryGenerator, build_dataset
from repro.workloads.queries import ALL_KINDS
from tests.cluster.test_parity import make_pair
from tests.storage.oracles import clade_states


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def binding_values(drugtree, protein_id, ligand_id, p_affinity):
    return {
        "ligand_id": ligand_id, "protein_id": protein_id,
        "activity_type": "Ki",
        "value_nm": round(10.0 ** (9 - p_affinity), 4),
        "p_affinity": p_affinity, "potent": p_affinity >= 6.0,
        "leaf_pre": drugtree.labeling.leaf_position(protein_id),
    }


def insert_binding(clustered, drugtree, protein_id, ligand_id="LIG-NEW",
                   p_affinity=7.9):
    """One binding into the cluster and into its single-node mirror."""
    values = binding_values(drugtree, protein_id, ligand_id, p_affinity)
    row_id = clustered.insert("bindings", values)
    assert drugtree.tables["bindings"].insert(values) == row_id
    return row_id


def rebuilt(clustered, pids):
    """The view of *pids* a cold engine over the same router builds."""
    cold = ClusterEngine(clustered.tree, clustered.router,
                         config=clustered.config)
    return cold._view(pids, None).drugtree


def index_state(index):
    return {name: value for name, value in vars(index).items()
            if name != "key_of"}


def assert_same_overlay(served: DrugTree, fresh: DrugTree):
    """Everything a query can observe of *served* equals *fresh*."""
    for name, table in fresh.tables.items():
        mine = served.tables[name]
        assert list(mine.scan()) == list(table.scan()), name
        assert mine.next_row_id == table.next_row_id, name
        assert ({key: index_state(index)
                 for key, index in mine.indexes().items()}
                == {key: index_state(index)
                    for key, index in table.indexes().items()}), name
        store, fresh_store = mine.column_store(), table.column_store()
        assert store._row_ids == fresh_store._row_ids, name
        assert store._columns == fresh_store._columns, name
    assert (clade_states(served.clade_aggregates)
            == clade_states(fresh.clade_aggregates))
    assert served.fingerprints == fresh.fingerprints
    assert sorted(served.molecules) == sorted(fresh.molecules)
    assert served.protein_count == fresh.protein_count
    assert served.ligand_count == fresh.ligand_count


def served_view(clustered):
    """``(pids, view)`` of the most recently built or absorbed view
    (a reused view keeps its place)."""
    return next(reversed(clustered._views.items()))


class ViewDeltaMachine(RuleBasedStateMachine):
    """Writes, reads and node faults against one cluster + mirror."""

    def __init__(self):
        super().__init__()
        set_metrics(MetricsRegistry())
        self.dataset, self.single, self.clustered = make_pair(seed=7)
        self.drugtree = self.single.drugtree
        self.generator = QueryGenerator(self.dataset.family,
                                        self.dataset.ligands, seed=7)
        self.proteins = list(self.dataset.family.protein_ids)
        self.nodes = self.clustered.router.cluster.node_ids
        self.new_ligands = 0
        self.crashed = False

    @rule(protein=st.integers(0, 15), ligand=st.integers(0, 23),
          p_affinity=st.integers(3000, 10000))
    def insert_binding(self, protein, ligand, p_affinity):
        insert_binding(
            self.clustered, self.drugtree,
            self.proteins[protein % len(self.proteins)],
            self.dataset.ligands[ligand].ligand_id, p_affinity / 1000)

    @rule(template=st.integers(0, 23))
    def insert_ligand(self, template):
        # A new compound with a known structure: through the mirror
        # first, so the cluster gets the row the mirror validated.
        model = self.dataset.ligands[template]
        ligands = self.drugtree.tables["ligands"]
        row_id = self.drugtree.add_ligand(
            f"LIG-NEW-{self.new_ligands}", model.smiles,
            ligands.get_dict(template))
        assert self.clustered.insert(
            "ligands", ligands.get_dict(row_id)) == row_id
        self.new_ligands += 1

    @rule()
    def read_every_kind(self):
        for kind in ALL_KINDS:
            query = self.generator.draw(kind)
            got = self.clustered.execute(query, deadline=5.0)
            assert got.rows == self.single.execute(query).rows, query
            if self.clustered.last_route["view"] == "reused":
                continue  # untouched since the read that checked it
            pids, view = served_view(self.clustered)
            assert_same_overlay(view.drugtree,
                                rebuilt(self.clustered, pids))

    @precondition(lambda self: not self.crashed)
    @rule(victim=st.integers(0, 4))
    def crash_replica(self, victim):
        now = self.clustered.clock.now()
        self.clustered.router.cluster.set_schedule(FaultSchedule(
            (Outage(now, now + 3600.0, target=self.nodes[victim]),)))
        self.crashed = True

    @precondition(lambda self: self.crashed)
    @rule()
    def heal(self):
        self.clustered.router.cluster.set_schedule(FaultSchedule(()))
        self.clustered.clock.advance(12.0)  # past the breaker reset
        self.crashed = False

    @rule()
    def anti_entropy(self):
        self.clustered.router.anti_entropy()

    @invariant()
    def cached_views_hold_what_they_were_loaded_from(self):
        for view in self.clustered._views.values():
            held = {(name, row_id): row
                    for name, table in view.drugtree.tables.items()
                    for row_id, row in table.scan()}
            assert held == {key: versioned.row
                            for key, versioned in view.loaded.items()}


TestViewDeltaMachine = ViewDeltaMachine.TestCase
TestViewDeltaMachine.settings = settings(
    max_examples=8, stateful_step_count=30, deadline=None,
    derandomize=True)


# -- directed cases: every way a view must refuse to absorb -----------------

def make_weak_pair():
    """W=1, R=1, no hinted handoff: replicas may miss rows for good."""
    dataset = build_dataset(DatasetConfig(n_leaves=16, n_ligands=24,
                                          seed=7))
    drugtree = dataset.drugtree()
    config = EngineConfig(use_semantic_cache=False)
    clustered = ClusterEngine.from_drugtree(
        drugtree, clock=dataset.clock, config=config,
        cluster_config=ClusterConfig(
            nodes=5, partitions=4, replication_factor=3, read_quorum=1,
            write_quorum=1, hinted_handoff=False))
    return dataset, QueryEngine(drugtree, config), clustered


def check_late_row_forces_a_rebuild():
    """The preferred replica misses row N, the view absorbs N+1, then
    repair and a later write surface N *below* the view's highest id:
    appending it would put it after N+1 in every scan."""
    dataset, single, clustered = make_weak_pair()
    drugtree, router = single.drugtree, clustered.router
    partition = clustered.partitioner.interval_partitions[0]
    leaf = clustered.labeling.leaf_name_at(partition.low)
    primary = router.cluster.group_for(partition.pid).node_ids[0]
    query = f"SELECT * FROM bindings IN SUBTREE '{partition.name}'"
    clustered.execute(query)

    now = clustered.clock.now()
    router.cluster.set_schedule(FaultSchedule(
        (Outage(now, now + 5.0, target=primary),)))
    missed = insert_binding(clustered, drugtree, leaf, "LIG-N")
    clustered.clock.advance(20.0)  # heal, and past the breaker reset
    insert_binding(clustered, drugtree, leaf, "LIG-N+1")
    # R=1 asks the primary alone: it never saw row N.
    stale = clustered.execute(query).rows
    assert clustered.last_route["view"] == "absorbed"
    assert clustered.last_route["rows_absorbed"] == 1
    assert len(stale) == len(single.execute(query).rows) - 1

    router.anti_entropy()
    insert_binding(clustered, drugtree, leaf, "LIG-N+2")
    assert clustered.execute(query).rows == single.execute(query).rows
    assert clustered.last_route["view"] == "built"
    pids, view = served_view(clustered)
    assert missed in dict(view.drugtree.tables["bindings"].scan())
    assert_same_overlay(view.drugtree, rebuilt(clustered, pids))


def test_late_row_below_the_watermark_rebuilds():
    check_late_row_forces_a_rebuild()


def test_planted_bug_no_watermark_check_is_caught(monkeypatch):
    monkeypatch.setattr(Table, "next_row_id", property(lambda self: 0))
    with pytest.raises((AssertionError, StorageError)):
        check_late_row_forces_a_rebuild()


def test_changed_version_of_a_held_row_rebuilds():
    _, single, clustered = make_pair(seed=7)
    bindings = single.drugtree.tables["bindings"]
    query = "SELECT * FROM bindings ORDER BY p_affinity DESC LIMIT 5"
    clustered.execute(query)
    row_id, row = next(bindings.scan())
    changed = dict(bindings.get_dict(row_id), p_affinity=11.5)
    clustered.router.write("bindings", row_id,
                           bindings.schema.validate_row(changed),
                           leaf_pre=changed["leaf_pre"])
    rows = clustered.execute(query).rows
    assert clustered.last_route["view"] == "built"
    assert rows[0]["p_affinity"] == 11.5
    pids, view = served_view(clustered)
    assert_same_overlay(view.drugtree, rebuilt(clustered, pids))


def test_a_failed_load_drops_the_view(monkeypatch):
    dataset, single, clustered = make_pair(seed=7)
    query = "SELECT count(*) FROM bindings"
    clustered.execute(query)
    (pids, view), = clustered._views.items()
    insert_binding(clustered, single.drugtree,
                   dataset.family.protein_ids[0])

    def failing(self, rows):
        raise StorageError("disk on fire")

    monkeypatch.setattr(DrugTree, "load_rows", failing)
    with pytest.raises(StorageError):
        clustered.execute(query)
    assert clustered._views == {}
    monkeypatch.undo()
    assert clustered.execute(query).rows == single.execute(query).rows
    assert clustered.last_route["view"] == "built"


def test_semantic_cache_on_read_insert_read_sees_the_row():
    dataset = build_dataset(DatasetConfig(n_leaves=16, n_ligands=24,
                                          seed=7))
    clustered = ClusterEngine.from_drugtree(dataset.drugtree(),
                                            clock=dataset.clock)
    assert clustered.config.use_semantic_cache
    query = "SELECT count(*) FROM bindings"
    before = clustered.execute(query).rows[0]["count_all"]
    assert clustered.execute(query).cache_outcome != "miss"
    clustered.insert("bindings", binding_values(
        dataset.drugtree(), dataset.family.protein_ids[0], "LIG-NEW",
        7.9))
    after = clustered.execute(query)
    assert after.cache_outcome == "miss"
    assert after.rows[0]["count_all"] == before + 1
    assert clustered.last_route["view"] == "absorbed"


def test_an_absorbed_row_reaches_the_views_estimates():
    # A view prices plans from its own indexes, which the absorb
    # advances: nothing is adopted or re-collected after it.
    _, single, clustered = make_pair(seed=7)
    query = "SELECT count(*) FROM bindings"
    clustered.execute(query)
    _, view = served_view(clustered)
    estimator = view.engine.planner.estimator
    fresh = (Comparison("p_affinity", "=", 9.875),)
    assert estimator.scan_rows("bindings", fresh) == MIN_ROWS
    rows = estimator.table_rows("bindings")
    insert_binding(clustered, single.drugtree,
                   single.drugtree.tables["proteins"].get_dict(0)
                   ["protein_id"], p_affinity=9.875)
    clustered.execute(query)
    assert clustered.last_route["view"] == "absorbed"
    assert served_view(clustered)[1] is view
    assert view.engine.planner.estimator is estimator
    assert estimator.table_rows("bindings") == rows + 1
    assert estimator.scan_rows("bindings", fresh) == 1.0


def test_bindings_insert_leaves_the_ligands_view_alone(monkeypatch):
    dataset, single, clustered = make_pair(seed=7)
    query = "SELECT count(*) FROM ligands"
    clustered.execute(query)
    (pids, view), = clustered._views.items()
    insert_binding(clustered, single.drugtree,
                   dataset.family.protein_ids[0])
    parsed = []
    original = drugtree_module.parse_smiles
    monkeypatch.setattr(
        drugtree_module, "parse_smiles",
        lambda *args, **kwargs: parsed.append(args) or original(
            *args, **kwargs))
    assert clustered.execute(query).rows == single.execute(query).rows
    assert clustered._views[pids] is view
    assert clustered.last_route["view"] == "absorbed"
    assert clustered.last_route["rows_absorbed"] == 0
    assert parsed == []


def test_outcomes_reach_the_trailer_and_the_counters():
    dataset, single, clustered = make_pair(seed=7)
    clade = clustered.partitioner.interval_partitions[0]
    query = f"SELECT count(*) FROM bindings IN SUBTREE '{clade.name}'"
    leaf = clustered.labeling.leaf_name_at(clade.low)
    assert ", hints=0, view=built" in clustered.explain_analyze(query)
    assert ", hints=0, view=reused" in clustered.explain_analyze(query)
    insert_binding(clustered, single.drugtree, leaf)
    insert_binding(clustered, single.drugtree, leaf)
    report = clustered.analyze(query)
    assert report.render().count(", hints=0, view=absorbed(+2)") == 1
    assert report.cluster["view"] == "absorbed"
    assert report.cluster["rows_absorbed"] == 2
    counters = get_metrics().counter_values("cluster.views.")
    assert counters == {
        "cluster.views.built": 1, "cluster.views.reused": 1,
        "cluster.views.absorbed": 1, "cluster.views.rows_absorbed": 2,
    }


def reachable_partition_queries(clustered):
    """One query per partition set pruning can yield: every contiguous
    run of interval partitions, with and without the ligands
    partition, and the ligands partition alone."""
    runs = clustered.partitioner.interval_partitions
    ligands = clustered.partitioner.ligands_partition.pid
    queries = {}
    for first in range(len(runs)):
        for last in range(first, len(runs)):
            pids = frozenset(p.pid for p in runs[first:last + 1])
            where = (f"WHERE leaf_pre >= {runs[first].low} "
                     f"AND leaf_pre < {runs[last].high}")
            queries[pids] = f"SELECT * FROM bindings {where}"
            queries[pids | {ligands}] = (
                f"SELECT ligand_id, p_affinity FROM bindings, ligands "
                f"{where}")
    queries[frozenset({ligands})] = "SELECT * FROM ligands"
    return queries


def test_every_reachable_partition_set_keeps_its_view():
    _, single, clustered = make_pair(seed=7)
    interval_count = len(clustered.partitioner.interval_partitions)
    assert interval_count == 4
    bound = interval_count * (interval_count + 1) + 1
    queries = reachable_partition_queries(clustered)
    assert len(queries) == bound
    for visit in ("built", "reused"):
        for pids, query in queries.items():
            assert clustered.execute(query).rows \
                == single.execute(query).rows, query
            assert clustered.last_route["shards_contacted"] == len(pids)
            assert clustered.last_route["view"] == visit, query
    counters = get_metrics().counter_values("cluster.views.")
    assert counters["cluster.views.built"] == len(queries)
    assert counters["cluster.views.reused"] == len(queries)
    assert set(clustered._views) == set(queries)
    assert len(clustered._views) <= bound
