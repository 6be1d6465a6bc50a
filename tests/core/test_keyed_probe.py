"""A join's probe side reads only the keys its build side holds.

Every join builds on its dimension table and ``bindings`` probes it.
When the probe side is a bare ``bindings`` scan and the table keeps a
hash index on the join key, the planner may price a *keyed probe*: a
``join_keys`` scan that looks up each distinct build key (one index
probe each) and merges the row ids ascending, so its rows come in the
order a full scan reads them. The join then answers exactly as the
hash join over the full scan did: same rows, same order.

The property runs joins whose build side holds one key (an organism),
many (a family) and none (an organism no protein has) on the row and
the batch engine. The keyed answer must equal, with ``==`` and in
order, the answer with the keyed probe planned away and
``NaiveEngine``'s; the engines' counters must agree. Duplicate and NULL
join keys, which no dimension table holds, run on hand-built tables at
the operator level against a nested-loop oracle. Two planted mutants —
row ids left in key order, the NULL key dropped — must fail.
The last class races keyed joins against 100-row appends on real
threads: every answer is ``NaiveEngine``'s at one batch boundary; and
a reader stopped half-way into a batch's hash-index append (keyed
join, equality, key set) sees the batch whole or not at all.
"""

import sys
import threading
from collections import Counter
from functools import cache
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.core.query import physical
from repro.core.query.logical import LogicalScan
from repro.core.query.physical import ExecCounters, HashJoinOp, ScanOp
from repro.core.query.planner import Planner
from repro.core.query.vectorized import VecHashJoinOp, VecScanOp
from repro.storage import Schema, Table, int_column, string_column
from repro.workloads import DatasetConfig, build_dataset
from tests.core.test_index_order_scan import OverlayNaive
from tests.storage.oracles import with_planted_bug

MODES = ("row", "vectorized")
COUNTERS = ("rows_scanned", "rows_emitted", "index_probes")
RESIDUALS = ("", " AND potent = true", " AND activity_type = 'Ki'")
PROTEIN_JOIN = ("SELECT protein_id, ligand_id, p_affinity "
                "FROM bindings, proteins WHERE {column} = '{value}'"
                "{residual}")
#: Bindings this potent are fewer than the ligands; several share one.
LIGAND_JOIN = ("SELECT ligand_id, smiles, p_affinity FROM bindings, "
               "ligands WHERE p_affinity >= {threshold}")
SETTINGS = settings(derandomize=True, max_examples=30, deadline=None,
                    database=None,
                    phases=(Phase.explicit, Phase.generate))


def _unkeyed(self, scan, cost, *args):
    """``Planner._keyed_probe`` planned away: every probe is a full
    scan's (the hash join as it was)."""
    return scan, cost


class World:
    """A small world, its engines and its naive oracle."""

    def __init__(self) -> None:
        dataset = build_dataset(DatasetConfig(n_leaves=24, n_ligands=120,
                                              seed=5))
        self.drugtree = dataset.drugtree()
        self.engines = {mode: QueryEngine(self.drugtree, EngineConfig(
            use_semantic_cache=False, execution_mode=mode))
            for mode in MODES}
        self.naive = NaiveEngine(dataset.tree, dataset.registry)
        proteins = self.drugtree.tables["proteins"]
        rows = [proteins.schema.row_as_dict(row)
                for row in proteins.scan_rows()]
        self.organisms = sorted({row["organism"] for row in rows})
        sizes = Counter(row["family"] for row in rows)
        #: Families of under half the proteins: a keyed probe reads
        #: less than a full scan. ``crowded``: the other ones.
        self.families = sorted(f for f, n in sizes.items()
                               if n < len(rows) / 2)
        self.crowded = sorted(set(sizes) - set(self.families))

    def text(self, case) -> str:
        kind, pick, residual = case
        if kind == "ligands":
            return LIGAND_JOIN.format(threshold=(9.0, 9.25, 9.5)[pick % 3])
        if kind == "organism":
            column, value = "organism", self.organisms[
                pick % len(self.organisms)]
        elif kind == "family":
            column, value = "family", self.families[
                pick % len(self.families)]
        else:
            column, value = "organism", "no such organism"
        return PROTEIN_JOIN.format(column=column, value=value,
                                   residual=RESIDUALS[residual])


@cache
def world() -> World:
    return World()


cases = st.tuples(st.sampled_from(("organism", "family", "none")),
                  st.integers(0, 50), st.integers(0, len(RESIDUALS) - 1))


def counters(result) -> tuple:
    return tuple(result.counters[key] for key in COUNTERS)


def check_engines(case) -> None:
    """The keyed answer of both engines is the full probe's and the
    naive engine's, and both engines count the same work."""
    w = world()
    text = w.text(case)
    keyed = {mode: w.engines[mode].execute(text) for mode in MODES}
    with mock.patch.object(Planner, "_keyed_probe", _unkeyed):
        full = {mode: w.engines[mode].execute(text) for mode in MODES}
    assert "JoinKeyScan" in keyed["row"].plan.explain()
    assert "JoinKeyScan" not in full["row"].plan.explain()
    for mode in MODES:
        assert keyed[mode].columns == full[mode].columns
        assert keyed[mode].values == full[mode].values
    assert keyed["row"].values == keyed["vectorized"].values
    assert counters(keyed["row"]) == counters(keyed["vectorized"])
    assert keyed["row"].rows == w.naive.execute(text).rows
    if case[0] == "none":
        assert keyed["row"].counters["rows_scanned"] == 0


@SETTINGS
@given(case=cases)
@example(case=("organism", 0, 1))
@example(case=("family", 0, 0))
@example(case=("family", 1, 2))
@example(case=("none", 0, 0))
def test_keyed_join_answers_as_the_full_probe_and_naive(case):
    check_engines(case)


class TestDirected:
    def test_a_keyed_plan_reads_a_fraction_of_the_fact_table(self):
        w = world()
        text = PROTEIN_JOIN.format(column="organism",
                                   value=w.organisms[0], residual="")
        result = w.engines["vectorized"].execute(text)
        # The organism's one protein, then only its bindings.
        assert result.counters["rows_scanned"] == 1 + len(result)
        assert result.counters["index_probes"] == 2

    def test_a_build_side_holding_most_keys_scans_in_full(self):
        w = world()
        text = PROTEIN_JOIN.format(column="family", value=w.crowded[0],
                                   residual="")
        result = w.engines["vectorized"].execute(text)
        assert "JoinKeyScan" not in result.plan.explain()
        assert result.counters["rows_scanned"] > \
            len(w.drugtree.tables["bindings"])

    @pytest.mark.parametrize("mode", MODES)
    def test_explain_analyze_runs_the_keyed_probe(self, mode):
        """The join hands its keys through the EXPLAIN ANALYZE wrapper
        of the probe scan."""
        w = world()
        text = PROTEIN_JOIN.format(column="family", value=w.families[0],
                                   residual=RESIDUALS[1])
        report = w.engines[mode].analyze(text)
        result = w.engines[mode].execute(text)
        assert "JoinKeyScan(protein_id from build) on bindings" in \
            report.plan_text
        assert report.rows == len(result) > 0
        assert {key: report.counters[key] for key in COUNTERS} == \
            {key: result.counters[key] for key in COUNTERS}

    @pytest.mark.parametrize("case", [
        ("organism", 0, 0), ("family", 0, 1), ("none", 0, 0),
        ("ligands", 0, 0)])
    def test_without_indexes_no_keyed_probe_is_planned(self, case):
        w = world()
        engine = QueryEngine(w.drugtree, EngineConfig(
            use_semantic_cache=False, use_indexes=False))
        text = w.text(case)
        assert "JoinKeyScan" not in engine.explain(text)
        assert engine.execute(text).values == \
            w.engines["vectorized"].execute(text).values


# -- NULL join keys, at the operator level ---------------------------------

key_lists = st.lists(st.sampled_from((None, "a", "b", "c", "d")),
                     max_size=12)


def hand_built(build_keys, probe_keys) -> tuple[Table, Table]:
    """A build table ``(k, b)`` and a probe table ``(k, p)`` with a hash
    index on its nullable ``k``; rows arrive after the index exists."""
    build = Table("build", Schema([string_column("k", nullable=True),
                                   int_column("b")]))
    probe = Table("probe", Schema([string_column("k", nullable=True),
                                   int_column("p")]))
    probe.create_index(["k"], kind="hash")
    for serial, key in enumerate(build_keys):
        build.insert({"k": key, "b": serial})
    for serial, key in enumerate(probe_keys):
        probe.insert({"k": key, "p": serial})
    return build, probe


def operator_join(mode: str, keyed: bool, build: Table,
                  probe: Table) -> tuple[list, tuple]:
    """Rows as ``(k, b, p)`` tuples and the counters of one hash join
    of *build* and *probe* on ``k``, keyed or over a full probe scan."""
    counters = ExecCounters()
    build_node = LogicalScan("build", "seq")
    probe_node = (LogicalScan("probe", "join_keys", access_column="k")
                  if keyed else LogicalScan("probe", "seq"))
    if mode == "row":
        op = HashJoinOp(counters, ScanOp(counters, build, build_node),
                        ScanOp(counters, probe, probe_node), "k", keyed)
        rows = [tuple(row.values()) for row in op.rows()]
    else:
        op = VecHashJoinOp(counters, VecScanOp(counters, build, build_node),
                           VecScanOp(counters, probe, probe_node), "k",
                           keyed)
        rows = [values for batch in op.batches()
                for values in batch.tuples()]
    return rows, tuple(getattr(counters, key) for key in COUNTERS)


@SETTINGS
@given(build_keys=key_lists, probe_keys=key_lists)
@example(build_keys=["b", None, "a"], probe_keys=["a", None, "b", "a"])
# Duplicate build keys, which no dimension table holds: one probe each.
@example(build_keys=["a", "b", "a", "a", "b"], probe_keys=["b", "c", "a"])
def check_null_keys(build_keys, probe_keys):
    build, probe = hand_built(build_keys, probe_keys)
    # Probe rows in row-id order, each with its build matches in
    # build order; NULL matches NULL, as a dict lookup does.
    oracle = [(key, b, p) for p, key in enumerate(probe_keys)
              for b, built in enumerate(build_keys) if built == key]
    keyed_counters = set()
    for mode in MODES:
        assert operator_join(mode, False, build, probe)[0] == oracle
        rows, work = operator_join(mode, True, build, probe)
        assert rows == oracle
        keyed_counters.add(work)
    assert len(keyed_counters) == 1
    (scanned, _, probes), = keyed_counters
    assert probes == len(set(build_keys))  # none for an empty build
    # The build scan's rows, and only the probe rows under a build key.
    assert scanned == len(build_keys) + sum(
        key in build_keys for key in probe_keys)


def test_null_join_keys_match_as_the_hash_join_does():
    check_null_keys()


PLANTED = {
    "row ids in key order (row)": (
        ScanOp, "rows", ("sorted(self._row_ids())", "self._row_ids()")),
    "row ids in key order (batch)": (
        VecScanOp, "batches", ("row_ids.sort()", "row_ids")),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_key_order_is_caught(name):
    cls, method, bug = PLANTED[name]
    planted = with_planted_bug(getattr(cls, method), bug)
    with mock.patch.object(cls, method, planted), \
            pytest.raises(AssertionError):
        check_null_keys()


def test_planted_null_key_drop_is_caught():
    planted = with_planted_bug(
        physical.resolve_access,
        ("for key in keys)", "for key in keys if key is not None)"))
    with mock.patch.object(physical, "resolve_access", planted), \
            mock.patch("repro.core.query.vectorized.resolve_access",
                       planted), \
            pytest.raises(AssertionError):
        check_null_keys()


# -- keyed joins racing appends ----------------------------------------------

class TestRacingAppends:
    """Real threads, a switch every microsecond: readers run keyed
    joins (one build key, many) on both engines while a writer appends
    100-row batches of bindings of the joined proteins. No reader
    raises, and every answer is the naive engine's over the overlay at
    one batch boundary."""

    SIZE, BATCHES = 100, 20

    def _world(self):
        dataset = build_dataset(DatasetConfig(n_leaves=24, n_ligands=40,
                                              seed=5))
        return dataset, dataset.integrate()[0]

    def _family(self, drugtree) -> tuple[dict, set]:
        """A protein of the smallest family, and that family's ids."""
        proteins = drugtree.tables["proteins"]
        rows = list(map(proteins.schema.row_as_dict, proteins.scan_rows()))
        sizes = Counter(row["family"] for row in rows)
        family = min(sizes, key=lambda name: (sizes[name], name))
        members = [row for row in rows if row["family"] == family]
        return members[0], {row["protein_id"] for row in members}

    def _texts(self, drugtree) -> list[str]:
        """A keyed join on one protein's organism (one build key) and
        one on its family (several)."""
        first, _ = self._family(drugtree)
        return [PROTEIN_JOIN.format(column="organism",
                                    value=first["organism"],
                                    residual=RESIDUALS[1]),
                PROTEIN_JOIN.format(column="family", value=first["family"],
                                    residual="")]

    def _batches(self, drugtree) -> list[list[tuple]]:
        """Copies of the family's bindings, strided so each batch adds
        rows under several of its proteins."""
        _, family = self._family(drugtree)
        bindings = drugtree.tables["bindings"]
        position = bindings.schema.index_of("protein_id")
        rows = [row for row in bindings.scan_rows()
                if row[position] in family]
        start = bindings.next_row_id
        return [[(start + number * self.SIZE + k,
                  rows[(number * self.SIZE + k) * 7 % len(rows)])
                 for k in range(self.SIZE)]
                for number in range(self.BATCHES)]

    def test_keyed_joins_racing_batch_appends(self):
        dataset, serial_tree = self._world()
        texts = self._texts(serial_tree)
        batches = self._batches(serial_tree)
        oracle = OverlayNaive(serial_tree)
        expected = {text: [] for text in texts}
        for number in range(self.BATCHES + 1):
            for text in texts:
                expected[text].append(oracle.execute(text).rows)
            if number < self.BATCHES:
                serial_tree.tables["bindings"].append_rows(batches[number])
        for text in texts:  # every batch moves every answer
            assert all(a != b for a, b in
                       zip(expected[text], expected[text][1:]))

        _, drugtree = self._world()
        engines = [QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False, execution_mode=mode))
            for mode in MODES]
        for engine in engines:
            assert "JoinKeyScan" in engine.explain(texts[1])
        seen: list[tuple[str, list]] = []
        errors: list[BaseException] = []
        done = threading.Event()

        def reader(engine):
            try:
                while True:  # at least one round, however fast the writer
                    for text in texts:
                        seen.append((text, engine.execute(text).rows))
                    if done.is_set():
                        break
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def writer():
            try:
                for batch in batches:
                    drugtree.tables["bindings"].append_rows(batch)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer)]
            threads += [threading.Thread(target=reader, args=(engine,))
                        for engine in engines]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert seen
        for text, rows in seen:
            assert rows in expected[text], (text, len(rows))

    @pytest.mark.parametrize("shape", ["keyed join", "eq", "key set"])
    def test_a_lookup_mid_batch_sees_the_batch_whole(self, shape):
        """A reader that meets a batch half-way into the hash index it
        looks up — a keyed join's, an equality's or a key set's — sees
        the batch whole or not at all: its lookups drop the ids at or
        above a boundary read under the table's lock, which the
        half-applied batch holds (so the writer's wait for the reader
        times out, and the reader answers after it)."""
        _, drugtree = self._world()
        bindings = drugtree.tables["bindings"]
        batch = self._batches(drugtree)[0]
        position = bindings.schema.index_of("protein_id")
        held = Counter(row[position] for _, row in batch).most_common(2)
        text = {
            "keyed join": self._texts(drugtree)[1],
            "eq": "SELECT ligand_id, p_affinity FROM bindings "
                  f"WHERE protein_id = '{held[0][0]}'",
            "key set": "SELECT ligand_id, p_affinity FROM bindings "
                       f"WHERE protein_id IN ('{held[0][0]}', "
                       f"'{held[1][0]}')",
        }[shape]
        engine = QueryEngine(drugtree, EngineConfig(use_semantic_cache=False))
        oracle = OverlayNaive(drugtree)
        before = engine.execute(text).rows  # the column store exists now
        assert any(path in engine.explain(text) for path in (
            "JoinKeyScan", "IndexEqScan", "KeySetScan"))
        index = bindings.index_on("protein_id")
        extend = index.extend
        halfway, answered = threading.Event(), threading.Event()
        seen = []

        def halting_extend(entries):
            entries = list(entries)
            extend(entries[:len(entries) // 2])
            halfway.set()
            answered.wait(timeout=0.5)
            extend(entries[len(entries) // 2:])

        def reader():
            halfway.wait(timeout=60)
            seen.append(engine.execute(text).rows)
            answered.set()

        thread = threading.Thread(target=reader)
        with mock.patch.object(index, "extend", halting_extend):
            thread.start()
            bindings.append_rows(batch)
            thread.join(timeout=60)
        after = engine.execute(text).rows
        assert after == oracle.execute(text).rows
        assert before != after
        assert seen in ([before], [after])
