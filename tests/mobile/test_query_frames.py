"""A query answer is encoded once: the server's per-answer frame memo.

``DrugTreeServer.query`` keeps the encoded frame of each fresh answer,
keyed by what the frame is a function of: the cache outcome, the
columns and the values' ``repr``, which carries each value's type and
a float zero's sign. Answers that are equal
but encode differently (``1``/``1.0``/``True``, ``0.0``/``-0.0``, lists
of those) must never share a frame; a ``miss`` and an ``exact`` answer
differ in their ``cache`` field; a degraded answer carries its
statuses, so it is encoded on every tap and never stored; eviction at
capacity re-encodes. A planted key without types must fail the first
of these.
"""

import pytest

from repro.core.query.executor import QueryResult
from repro.mobile import DrugTreeServer, ServerConfig
from repro.mobile import server as server_module
from repro.mobile.protocol import full_message
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.sources import FaultSchedule, FetchScheduler, Outage, wrap_registry
from repro.workloads import DatasetConfig, build_dataset

#: Answers equal under ``==`` whose frames differ, in tap order: a key
#: that misses one difference serves an earlier answer's bytes.
TWINS = (
    ((1,),), ((1.0,),), ((True,),),
    ((0.0,),), ((-0.0,),),
    (([1],),), (([1.0],),),
)
TEXT = "SELECT count(*) FROM bindings WHERE p_affinity >= 6.0"


@pytest.fixture(autouse=True)
def fresh_metrics():
    registry = MetricsRegistry()
    previous = get_metrics()
    set_metrics(registry)
    yield registry
    set_metrics(previous)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DatasetConfig(n_leaves=24, n_ligands=20, seed=23))


def make_server(dataset, registry=None):
    server = DrugTreeServer(
        dataset.drugtree(), ServerConfig(tap_deadline_s=5.0),
        federation=FetchScheduler(registry or dataset.registry,
                                  max_attempts=1))
    session_id, _ = server.open_session()
    return server, session_id


def count_encodes(monkeypatch):
    calls = []
    real = server_module.full_message

    def counting(payload, *args):
        calls.append(payload)
        return real(payload, *args)

    monkeypatch.setattr(server_module, "full_message", counting)
    return calls


def fresh_frame(result):
    return full_message({"rows": result.rows,
                         "cache": result.cache_outcome})


def misframed(server, session_id, monkeypatch):
    """The twin answers whose tap ships other bytes than a fresh encode
    of the same answer."""
    answer = {}
    monkeypatch.setattr(server.engine, "execute",
                        lambda dtql, deadline=None: answer["result"])
    wrong = []
    for outcome in ("miss", "exact"):
        for values in TWINS:
            answer["result"] = QueryResult(("v",), values,
                                           cache_outcome=outcome)
            shipped = server.query(session_id, TEXT).message
            if shipped != fresh_frame(QueryResult(("v",), values,
                                                  cache_outcome=outcome)):
                wrong.append((outcome, values))
    return wrong


def test_equal_answers_that_encode_apart_get_their_own_frames(
        dataset, monkeypatch):
    server, session_id = make_server(dataset)
    assert misframed(server, session_id, monkeypatch) == []


def typeless_key(result):
    """The planted key: outcome, columns and values, no types (and no
    memo for an answer holding a list, which cannot be a key)."""
    key = (result.cache_outcome, result.columns, result.values)
    try:
        hash(key)
    except TypeError:
        return None
    return key


def test_a_key_without_types_fails(dataset, monkeypatch):
    server, session_id = make_server(dataset)
    monkeypatch.setattr(server_module, "_answer_key", typeless_key)
    assert misframed(server, session_id, monkeypatch) != []


def test_miss_and_exact_frames_of_one_answer_differ(dataset):
    server, session_id = make_server(dataset)
    miss = server.query(session_id, TEXT).message
    exact = server.query(session_id, TEXT).message
    assert miss.payload()["cache"] == "miss"
    assert exact.payload()["cache"] == "exact"
    assert miss != exact
    assert miss.payload()["rows"] == exact.payload()["rows"]


def test_a_repeated_answer_is_not_encoded(dataset, monkeypatch,
                                          fresh_metrics):
    server, session_id = make_server(dataset)
    server.query(session_id, TEXT)
    first = server.query(session_id, TEXT).message  # the exact frame
    calls = count_encodes(monkeypatch)
    again = server.query(session_id, TEXT)
    assert calls == []
    assert again.message is first
    assert again.message == fresh_frame(server.engine.execute(TEXT))
    assert fresh_metrics.counter("mobile.frames.query_encoded").value == 2


def test_a_degraded_answer_is_encoded_on_every_tap(dataset, monkeypatch,
                                                   fresh_metrics):
    dark = FaultSchedule([Outage(0.0, 1e9, target="pdb-sim")])
    server, session_id = make_server(
        dataset, wrap_registry(dataset.registry, dark))
    calls = count_encodes(monkeypatch)
    text = "SELECT protein_id, method FROM proteins"
    responses = [server.query(session_id, text) for _ in range(3)]
    assert [response.status for response in responses] == ["degraded"] * 3
    assert len(calls) == 3
    assert all(payload["status"] == "degraded" for payload in calls)
    assert server._answers == {}
    assert fresh_metrics.counter("mobile.frames.query_encoded").value == 3


def test_eviction_at_capacity_re_encodes(dataset, monkeypatch):
    monkeypatch.setattr(server_module, "RENDER_MEMO_CAPACITY", 2)
    server, session_id = make_server(dataset)
    texts = [f"SELECT count(*) FROM bindings WHERE p_affinity >= {t}"
             for t in (5.0, 6.0, 7.0)]
    server.query(session_id, texts[0])
    exact = server.query(session_id, texts[0]).message
    assert list(server._answers.values())[-1] is exact
    for text in texts[1:]:
        server.query(session_id, text)
    assert len(server._answers) == 2
    assert exact not in server._answers.values()
    calls = count_encodes(monkeypatch)
    again = server.query(session_id, texts[0]).message
    assert len(calls) == 1
    assert again == exact and again is not exact
