"""A cached detail card carries its encoded frame.

The viewport prefetch stores each fresh card together with its
``full_message``, built once, so a details tap served from the cache
encodes nothing and ships the same bytes a fresh encode would. Degraded
and overlay (stale) cards are encoded on every tap and never stored;
evicting a card drops its frame with it.
"""

import pytest

from repro.mobile import DrugTreeServer, ServerConfig
from repro.mobile import server as server_module
from repro.mobile.protocol import full_message
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.sources import (
    BreakerConfig,
    FaultSchedule,
    FetchScheduler,
    Outage,
    wrap_registry,
)
from repro.workloads import DatasetConfig, build_dataset

ANNOTATIONS_DARK = FaultSchedule([Outage(0.0, 1e9, target="go-sim")])
ALL_DARK = FaultSchedule([
    Outage(0.0, 1e9, target=frozenset({"pdb-sim", "go-sim"})),
])


@pytest.fixture(autouse=True)
def fresh_metrics():
    registry = MetricsRegistry()
    previous = get_metrics()
    set_metrics(registry)
    yield registry
    set_metrics(previous)


def make_server(dark=None, breakers=False, tap_deadline_s=None):
    """A server whose renders prefetch nothing: every card enters the
    cache through a details tap."""
    dataset = build_dataset(DatasetConfig(n_leaves=24, n_ligands=20,
                                          seed=23))
    registry = dataset.registry
    if dark is not None:
        registry = wrap_registry(registry, dark)
    scheduler = FetchScheduler(
        registry, max_attempts=1,
        breaker_config=(BreakerConfig(failure_threshold=2,
                                      reset_timeout_s=60.0)
                        if breakers else None))
    server = DrugTreeServer(
        dataset.drugtree(),
        ServerConfig(prefetch_details=False,
                     tap_deadline_s=tap_deadline_s),
        federation=scheduler)
    session_id, _ = server.open_session()
    return dataset.family.protein_ids, server, session_id


def count_encodes(monkeypatch):
    calls = []
    real = server_module.full_message

    def counting(payload, *args):
        calls.append(payload.get("protein_id"))
        return real(payload, *args)

    monkeypatch.setattr(server_module, "full_message", counting)
    return calls


def fresh_encode(protein_id, details):
    return full_message({"protein_id": protein_id, "details": details})


def test_a_cached_card_is_served_without_an_encode(monkeypatch):
    proteins, server, session_id = make_server()
    pid = proteins[0]
    calls = count_encodes(monkeypatch)
    first = server.protein_details(session_id, pid)
    assert calls == [pid]  # built once, when the card was stored

    second = server.protein_details(session_id, pid)
    assert calls == [pid]
    assert second.status == "fresh"
    details = server._details[pid].details
    assert second.message.data == fresh_encode(pid, details).data
    assert second.message.data == first.message.data
    assert second.message.payload() == {"protein_id": pid,
                                        "details": details}


@pytest.mark.parametrize("dark, breakers, status", [
    (ANNOTATIONS_DARK, False, "degraded"),
    (ALL_DARK, True, "stale"),
], ids=["degraded", "stale"])
def test_a_flagged_card_is_encoded_per_tap_and_never_stored(
        monkeypatch, dark, breakers, status):
    proteins, server, session_id = make_server(
        dark=dark, breakers=breakers, tap_deadline_s=5.0)
    pid = proteins[0]
    calls = count_encodes(monkeypatch)
    for tap in (1, 2):
        response = server.protein_details(session_id, pid)
        assert response.status == status
        payload = response.message.payload()
        assert payload["status"] == status
        assert response.message.data == full_message(payload).data
        assert calls == [pid] * tap
        assert not server._details


def test_eviction_drops_the_card_with_its_frame(monkeypatch,
                                                fresh_metrics):
    monkeypatch.setattr(server_module, "DETAIL_CACHE_CAPACITY", 3)
    proteins, server, session_id = make_server()
    for pid in proteins[:6]:
        server.protein_details(session_id, pid)
    assert list(server._details) == proteins[3:6]
    for pid, card in server._details.items():
        assert card.message.data == fresh_encode(pid, card.details).data

    calls = count_encodes(monkeypatch)
    again = server.protein_details(session_id, proteins[0])
    assert calls == [proteins[0]]  # evicted: fetched and encoded anew
    card = server._details[proteins[0]]
    assert again.message is card.message
    assert list(server._details) == [*proteins[4:6], proteins[0]]
    counters = fresh_metrics.snapshot()["counters"]
    assert counters["mobile.prefetch.misses"] == 7
