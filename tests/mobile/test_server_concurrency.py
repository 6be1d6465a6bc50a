"""Concurrency and session-table tests for the mobile server.

The serving layer models concurrency in virtual time, but a real
deployment also drives one :class:`DrugTreeServer` from a thread pool —
these tests hammer the server with real threads and check the session
table's bounds and typed errors, and that the render memos serve no
view an insert made stale.
"""

import sys
import threading

import pytest

from repro.chem.affinity import ActivityType, BindingRecord
from repro.errors import MobileError, UnknownSessionError
from repro.mobile import DrugTreeServer
from repro.mobile import server as server_module
from repro.mobile.lod import render_viewport
from repro.mobile.protocol import delta_message, full_message
from repro.sources.scheduler import FetchScheduler
from repro.workloads import DatasetConfig, build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DatasetConfig(n_leaves=24, n_ligands=40,
                                       seed=11))


@pytest.fixture(scope="module")
def drugtree(dataset):
    return dataset.drugtree()


class TestUnknownSession:
    def test_typed_error_is_a_mobile_error(self, drugtree):
        server = DrugTreeServer(drugtree)
        with pytest.raises(UnknownSessionError) as excinfo:
            server.navigate("ghost", "clade_0001")
        assert isinstance(excinfo.value, MobileError)
        assert "ghost" in str(excinfo.value)

    def test_query_and_details_raise_it_too(self, dataset, drugtree):
        server = DrugTreeServer(drugtree,
                                federation=FetchScheduler(
                                    dataset.registry))
        with pytest.raises(UnknownSessionError):
            server.query("ghost", "SELECT count(*) FROM bindings")
        with pytest.raises(UnknownSessionError):
            server.protein_details("ghost", "P00001")


class TestBoundedSessionTable:
    def test_lru_eviction_past_max_sessions(self, drugtree,
                                            monkeypatch):
        monkeypatch.setattr(server_module, "MAX_SESSIONS", 2)
        server = DrugTreeServer(drugtree)
        first, _ = server.open_session()
        second, _ = server.open_session()
        third, _ = server.open_session()
        with pytest.raises(UnknownSessionError):
            server.navigate(first, "clade_0001")
        # Still-resident sessions keep working.
        server.navigate(second, "clade_0001")
        server.navigate(third, "clade_0001")

    def test_touching_a_session_refreshes_its_lru_slot(self, drugtree,
                                                       monkeypatch):
        monkeypatch.setattr(server_module, "MAX_SESSIONS", 2)
        server = DrugTreeServer(drugtree)
        first, _ = server.open_session()
        second, _ = server.open_session()
        server.navigate(first, "clade_0001")  # first is now hottest
        server.open_session()                 # evicts second
        server.navigate(first, "clade_0002")
        with pytest.raises(UnknownSessionError):
            server.navigate(second, "clade_0001")


class TestConcurrentHammer:
    def test_parallel_gestures_on_shared_sessions(self, drugtree):
        server = DrugTreeServer(drugtree)
        session_ids = [server.open_session()[0] for _ in range(4)]
        targets = ["clade_0001", "clade_0002", "clade_0003"]
        errors = []

        def hammer(worker):
            try:
                for i in range(12):
                    session_id = session_ids[(worker + i)
                                             % len(session_ids)]
                    server.navigate(session_id,
                                    targets[i % len(targets)])
                    server.query(session_id,
                                 "SELECT count(*) FROM bindings")
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(worker,))
                   for worker in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Every session survived and still renders.
        for session_id in session_ids:
            server.navigate(session_id, "clade_0001")

    def test_distinct_range_queries_share_one_semantic_cache(
            self, drugtree):
        # Aggregates are cached for exact reuse only, so every one of
        # these misses after scanning the whole LRU map for a subsuming
        # entry — while the other threads' stores reshape that map.
        per_thread, n_threads = 400, 6

        def text(worker, i):
            bound = 4.5 + (i * n_threads + worker) * 0.002
            return ("SELECT count(*) FROM bindings "
                    f"WHERE p_affinity > {bound:.3f}")

        def rows_of(server, session_id, dtql):
            return server.query(session_id, dtql).message.payload()["rows"]

        server = DrugTreeServer(drugtree)
        session_ids = [server.open_session()[0]
                       for _ in range(n_threads)]
        answers = {}
        errors = []

        def hammer(worker):
            try:
                for i in range(per_thread):
                    dtql = text(worker, i)
                    answers[dtql] = rows_of(server, session_ids[worker],
                                            dtql)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(worker,))
                       for worker in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(answers) == per_thread * n_threads

        serial = DrugTreeServer(drugtree)
        session_id, _ = serial.open_session()
        for dtql, rows in answers.items():
            assert rows == rows_of(serial, session_id, dtql), dtql
        stats = server.engine.cache.stats()
        assert (stats["exact_hits"] + stats["subsumption_hits"]
                + stats["misses"]) == per_thread * n_threads

    def test_navigations_racing_inserts_never_serve_a_stale_view(self):
        # A world of its own: this test inserts bindings.
        dataset = build_dataset(DatasetConfig(n_leaves=24, n_ligands=40,
                                              seed=11))
        drugtree = dataset.drugtree()
        server = DrugTreeServer(drugtree)
        foci = [server._root_name, "clade_0001", "clade_0002",
                "clade_0003"]
        session_ids = [server.open_session()[0] for _ in range(4)]
        for session_id, focus in zip(session_ids, foci):
            server.navigate(session_id, focus)  # every view memoized
        proteins = dataset.family.protein_ids
        errors = []

        def navigator(worker):
            try:
                for i in range(60):
                    response = server.navigate(
                        session_ids[(worker + i) % len(session_ids)],
                        foci[(worker * 3 + i) % len(foci)])
                    response.message.payload()  # every frame decodes
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def inserter():
            try:
                for i in range(40):
                    drugtree.add_binding(BindingRecord(
                        "LIG00000", proteins[i % len(proteins)],
                        ActivityType.KI, 10.0 + i))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=navigator, args=(worker,))
                       for worker in range(4)]
            threads.append(threading.Thread(target=inserter))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

        # No view filled before an insert survives it: from the root,
        # every focus ships exactly what a direct render at the final
        # version frames.
        root = render_viewport(drugtree, server._root_name)
        for focus in foci:
            session_id, opened = server.open_session()
            assert opened.message.data == full_message(root).data
            current = render_viewport(drugtree, focus)
            full = full_message(current)
            delta = delta_message(root, current)
            expected = delta if delta.wire_bytes < full.wire_bytes else full
            assert server.navigate(session_id, focus).message.data \
                == expected.data, focus

    def test_queries_racing_inserts_never_keep_a_stale_answer(self):
        # A world of its own: this test inserts bindings. The queries
        # overlap, so some are answered by subsumption.
        dataset = build_dataset(DatasetConfig(n_leaves=24, n_ligands=40,
                                              seed=11))
        drugtree = dataset.drugtree()
        server = DrugTreeServer(drugtree)
        texts = ["SELECT * FROM bindings IN SUBTREE 'clade_0001'",
                 "SELECT * FROM bindings WHERE p_affinity >= 6.0 "
                 "IN SUBTREE 'clade_0001'",
                 "SELECT count(*) FROM bindings IN SUBTREE 'clade_0002'",
                 "SELECT ligand_id, p_affinity FROM bindings "
                 "ORDER BY p_affinity DESC LIMIT 5"]
        session_ids = [server.open_session()[0] for _ in range(4)]
        proteins = dataset.family.protein_ids
        errors = []

        def reader(worker):
            try:
                for i in range(60):
                    server.query(session_ids[worker],
                                 texts[(worker + i) % len(texts)])
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def inserter():
            try:
                for i in range(40):
                    drugtree.add_binding(BindingRecord(
                        "LIG00000", proteins[i % len(proteins)],
                        ActivityType.KI, 10.0 + i))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(worker,))
                       for worker in range(4)]
            threads.append(threading.Thread(target=inserter))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

        # No answer filled before an insert survives it: the shared
        # cache answers every text as an uncached engine does now.
        fresh = DrugTreeServer(drugtree)
        fresh_id, _ = fresh.open_session()
        for dtql in texts:
            shared = server.query(session_ids[0], dtql).message.payload()
            assert shared["rows"] == fresh.query(
                fresh_id, dtql).message.payload()["rows"], dtql

    def test_parallel_opens_respect_the_bound(self, drugtree,
                                              monkeypatch):
        monkeypatch.setattr(server_module, "MAX_SESSIONS", 8)
        server = DrugTreeServer(drugtree)
        opened = []
        lock = threading.Lock()

        def opener():
            for _ in range(5):
                session_id, _ = server.open_session()
                with lock:
                    opened.append(session_id)

        threads = [threading.Thread(target=opener) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(opened) == 20
        live = [sid for sid in opened
                if _still_open(server, sid)]
        assert len(live) <= 8


def _still_open(server, session_id):
    try:
        server.navigate(session_id, "clade_0001")
        return True
    except UnknownSessionError:
        return False
