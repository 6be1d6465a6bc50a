"""Tests for the mobile server, client, and gesture workloads."""

import pytest

from repro.errors import MobileError
from repro.mobile import (
    DrugTreeServer,
    MobileClient,
    NetworkLink,
    ServerConfig,
    get_profile,
    plan_session,
    replay_session,
)
from repro.mobile.lod import expandable_nodes
from repro.workloads import DatasetConfig, build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DatasetConfig(n_leaves=28, n_ligands=40,
                                       seed=17))


@pytest.fixture(scope="module")
def drugtree(dataset):
    return dataset.drugtree()


def _client(dataset, drugtree, config=None, profile="3g"):
    server = DrugTreeServer(drugtree, config)
    link = NetworkLink(get_profile(profile), dataset.clock, seed=0)
    return MobileClient(server, link)


class TestServer:
    def test_open_session_sends_initial_view(self, dataset, drugtree):
        server = DrugTreeServer(drugtree)
        session_id, response = server.open_session()
        assert session_id
        assert response.message.payload()["nodes"]

    def test_unknown_session_rejected(self, drugtree):
        server = DrugTreeServer(drugtree)
        with pytest.raises(MobileError):
            server.navigate("ghost", "clade_0001")

    def test_close_session(self, drugtree):
        server = DrugTreeServer(drugtree)
        session_id, _ = server.open_session()
        server.close_session(session_id)
        with pytest.raises(MobileError):
            server.query(session_id, "SELECT count(*) FROM bindings")

    def test_navigate_sends_delta_when_smaller(self, dataset, drugtree):
        server = DrugTreeServer(drugtree)
        session_id, first = server.open_session()
        assert first.message.kind == "full"
        # Re-rendering an overlapping viewport: the delta is tiny, so
        # the adaptive framing picks it.
        focus = first.message.payload()["focus"]
        second = server.navigate(session_id, focus)
        assert second.message.kind == "delta"
        assert second.message.wire_bytes < first.message.wire_bytes

    def test_navigate_falls_back_to_full_on_big_jump(self, dataset,
                                                     drugtree):
        server = DrugTreeServer(drugtree)
        session_id, first = server.open_session()
        target = expandable_nodes(first.message.payload())[0]
        second = server.navigate(session_id, target)
        # Whichever frame was sent, it must be the smaller encoding.
        assert second.message.kind in ("delta", "full")

    def test_delta_disabled_sends_full(self, drugtree):
        server = DrugTreeServer(drugtree, ServerConfig(use_delta=False))
        session_id, first = server.open_session()
        target = expandable_nodes(first.message.payload())[0]
        second = server.navigate(session_id, target)
        assert second.message.kind == "full"

    def test_query_returns_rows(self, drugtree):
        server = DrugTreeServer(drugtree)
        session_id, _ = server.open_session()
        response = server.query(session_id,
                                "SELECT count(*) FROM bindings")
        payload = response.message.payload()
        assert payload["rows"][0]["count_all"] == drugtree.binding_count


class TestClient:
    def test_client_reconstructs_state_from_deltas(self, dataset,
                                                   drugtree):
        client = _client(dataset, drugtree)
        target = expandable_nodes(client.state.payload)[0]
        client.tap_expand(target)
        # Client state must equal a fresh render of the same viewport.
        fresh_server = DrugTreeServer(drugtree,
                                      ServerConfig(use_delta=False))
        session_id, _ = fresh_server.open_session()
        fresh = fresh_server.navigate(session_id, target)
        assert client.state.payload == fresh.message.payload()

    def test_interaction_latency_includes_network_and_server(
            self, dataset, drugtree):
        client = _client(dataset, drugtree)
        interaction = client.interactions[0]
        assert interaction.network_s > 0
        assert interaction.server_wall_s >= 0
        assert interaction.experienced_latency_s == pytest.approx(
            interaction.network_s + interaction.server_wall_s
        )

    def test_query_gesture(self, dataset, drugtree):
        client = _client(dataset, drugtree)
        interaction = client.run_query("SELECT count(*) FROM bindings")
        assert interaction.kind == "query"
        assert interaction.rows == 1

    def test_byte_accounting(self, dataset, drugtree):
        client = _client(dataset, drugtree)
        client.run_query("SELECT count(*) FROM bindings")
        assert client.total_bytes_down == sum(
            i.bytes_down for i in client.interactions
        )

    def test_slower_network_increases_latency(self, dataset, drugtree):
        edge_client = _client(dataset, drugtree, profile="edge")
        wifi_client = _client(dataset, drugtree, profile="wifi")
        assert edge_client.interactions[0].network_s > \
            wifi_client.interactions[0].network_s


class TestSequenceSearchEndpoint:
    def test_search_returns_located_hits(self, dataset, drugtree):
        client = _client(dataset, drugtree)
        probe = dataset.family.sequences[3]
        interaction = client.search_sequence(probe.residues, top_k=3)
        assert interaction.kind == "sequence_search"
        assert interaction.rows == 3
        payload = client.server.search_sequence(
            client.session_id, probe.residues, top_k=3,
        ).message.payload()
        best = payload["hits"][0]
        assert best["protein_id"] == probe.seq_id
        assert best["identity"] == 1.0
        assert best["leaf_pre"] == drugtree.labeling.leaf_position(
            probe.seq_id
        )

    def test_search_charges_network_time(self, dataset, drugtree):
        client = _client(dataset, drugtree)
        interaction = client.search_sequence(
            dataset.family.sequences[0].residues
        )
        assert interaction.network_s > 0


class TestGestureWorkload:
    def test_plan_is_deterministic(self):
        assert plan_session(20, seed=4) == plan_session(20, seed=4)
        assert plan_session(20, seed=4) != plan_session(20, seed=5)

    def test_plan_length_and_kinds(self):
        session = plan_session(25, seed=0)
        assert len(session.kinds) == 25
        assert set(session.kinds) <= {"expand", "pan", "query"}

    def test_replay_executes_every_gesture(self, dataset, drugtree):
        client = _client(dataset, drugtree)
        session = plan_session(10, seed=2)
        interactions = replay_session(client, session,
                                      dataset.family.clade_names)
        assert len(interactions) == 10
        # +1 for the session-open render.
        assert len(client.interactions) == 11

    def test_replay_state_stays_consistent(self, dataset, drugtree):
        client = _client(dataset, drugtree)
        session = plan_session(15, seed=3)
        replay_session(client, session, dataset.family.clade_names)
        # After any number of deltas the client state must still be a
        # valid payload with nodes and matching edges.
        nodes = client.state.payload.get("nodes", {})
        assert nodes
        for parent, child in client.state.payload.get("edges", []):
            assert parent in nodes

    def test_invalid_plans_rejected(self, dataset):
        with pytest.raises(MobileError):
            plan_session(0)


class TestDetailPrefetch:
    """Viewport prefetch and the protein-details tap."""

    def _federated_server(self, dataset, drugtree, config=None):
        from repro.sources import FetchScheduler

        scheduler = FetchScheduler(dataset.registry)
        server = DrugTreeServer(drugtree, config,
                                federation=scheduler)
        return server, scheduler

    def test_details_need_federation(self, dataset, drugtree):
        server = DrugTreeServer(drugtree)
        session_id, _ = server.open_session()
        with pytest.raises(MobileError, match="federation"):
            server.protein_details(session_id,
                                   dataset.family.protein_ids[0])

    def test_render_prefetches_visible_leaves(self, dataset, drugtree):
        server, scheduler = self._federated_server(dataset, drugtree)
        session_id, response = server.open_session()
        visible = server._visible_leaves(response.message.payload())
        if not visible:  # initial viewport may be all clades; zoom in
            nodes = response.message.payload()["nodes"]
            focus = next(name for name, entry in nodes.items()
                         if not entry.get("leaf"))
            response = server.navigate(session_id, focus)
            visible = server._visible_leaves(
                response.message.payload()
            )
        assert visible
        assert scheduler.stats.batches >= 1
        assert all(pid in server._details for pid in visible)

    def test_details_tap_hits_prefetch_cache(self, dataset, drugtree):
        server, scheduler = self._federated_server(dataset, drugtree)
        session_id, _ = server.open_session()
        cached = next(iter(server._details), None)
        assert cached is not None
        batches_before = scheduler.stats.batches
        response = server.protein_details(session_id, cached)
        details = response.message.payload()["details"]
        assert details["method"]
        assert "go_terms" in details
        # Served from the prefetch cache: no new scheduler batch.
        assert scheduler.stats.batches == batches_before

    def test_details_miss_fetches_on_demand(self, dataset, drugtree):
        config = ServerConfig(prefetch_details=False)
        server, scheduler = self._federated_server(dataset, drugtree,
                                                   config)
        session_id, _ = server.open_session()
        assert not server._details  # prefetch disabled
        pid = dataset.family.protein_ids[0]
        response = server.protein_details(session_id, pid)
        assert response.message.payload()["protein_id"] == pid
        assert scheduler.stats.batches == 1

    def test_detail_cache_capacity_bounded(self, dataset, drugtree,
                                           monkeypatch):
        monkeypatch.setattr("repro.mobile.server.DETAIL_CACHE_CAPACITY",
                            3)
        config = ServerConfig(prefetch_details=False)
        server, _ = self._federated_server(dataset, drugtree, config)
        session_id, _ = server.open_session()
        for pid in dataset.family.protein_ids[:6]:
            server.protein_details(session_id, pid)
        assert len(server._details) <= 3
