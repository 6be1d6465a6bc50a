"""The server's render memos change no byte a session receives.

``DrugTreeServer`` renders a viewport once per data version and frames
a move between two memoized views once. The property below replays
drawn interleavings of opens, navigations (one to an unknown clade),
binding inserts and a breaker trip then heal over up to three sessions,
and holds every render response to what a from-scratch computation
gives at that moment: the full frame of a direct ``render_viewport``,
or the smaller of that and the delta from the session's previous
payload — and the same prefetch keys. Two planted bugs, named below,
must each fail it.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.chem.affinity import ActivityType, BindingRecord
from repro.errors import MobileError
from repro.mobile import DrugTreeServer
from repro.mobile import server as server_module
from repro.mobile.lod import render_viewport
from repro.mobile.protocol import delta_message, full_message
from repro.obs import Tracer, get_tracer, set_tracer
from repro.sources import BreakerConfig, FetchScheduler
from repro.workloads import DatasetConfig, build_dataset

FOCI = ["clade_0000", "clade_0001", "clade_0002", "clade_0003",
        "clade_none"]
MAX_SESSIONS = 3


@pytest.fixture(scope="module")
def world():
    """One world per module: inserts accumulate across examples, and
    the model reads the tree as it is at each gesture."""
    dataset = build_dataset(DatasetConfig(n_leaves=24, n_ligands=20,
                                          seed=23))
    return dataset, dataset.drugtree()


def make_server(world, server_class=DrugTreeServer):
    dataset, drugtree = world
    scheduler = FetchScheduler(
        dataset.registry,
        breaker_config=BreakerConfig(failure_threshold=2,
                                     reset_timeout_s=1e9))
    return server_class(drugtree, federation=scheduler), scheduler


# -- the from-scratch model ---------------------------------------------------

def expected_payload(drugtree, focus, degraded):
    if not degraded:
        return render_viewport(drugtree, focus)
    payload = render_viewport(
        drugtree, focus,
        max_depth=server_module.DEGRADED_LOD_MAX_DEPTH,
        max_nodes=server_module.DEGRADED_LOD_MAX_NODES)
    payload["status"] = "degraded"
    return payload


def expected_frame(previous, payload):
    full = full_message(payload)
    if previous is None:
        return full
    delta = delta_message(previous, payload)
    return delta if delta.wire_bytes < full.wire_bytes else full


def visible_leaves(payload):
    return [entry["name"] for entry in payload["nodes"].values()
            if entry["leaf"] and entry["name"]]


gestures = st.lists(st.one_of(
    st.tuples(st.just("open")),
    st.tuples(st.just("navigate"), st.integers(0, MAX_SESSIONS - 1),
              st.sampled_from(FOCI)),
    st.tuples(st.just("insert"), st.integers(0, 23),
              st.sampled_from([5.0, 80.0, 9000.0])),
    st.tuples(st.just("trip")),
    st.tuples(st.just("heal")),
), min_size=8, max_size=40).map(lambda script: [("open",), *script])


def replay(world, server_class, script):
    dataset, drugtree = world
    server, scheduler = make_server(world, server_class)
    breaker = scheduler.breakers.breaker("pdb-sim", "protein")
    prefetched = []
    prefetch = server._prefetch_details

    def recording_prefetch(protein_ids):
        prefetched.append(list(protein_ids))
        return prefetch(protein_ids)

    server._prefetch_details = recording_prefetch
    proteins = dataset.family.protein_ids
    sessions = []          # [session id, payload the client holds]
    tripped = False
    for gesture in script:
        kind = gesture[0]
        if kind == "insert":
            drugtree.add_binding(BindingRecord(
                "LIG00000", proteins[gesture[1] % len(proteins)],
                ActivityType.KI, gesture[2]))
            continue
        if kind == "trip":
            breaker.record_failure()
            breaker.record_failure()
            tripped = True
            continue
        if kind == "heal":
            breaker.reset()
            tripped = False
            continue
        prefetched.clear()
        if kind == "open":
            if len(sessions) == MAX_SESSIONS:
                continue
            focus = server._root_name
            session_id, response = server.open_session()
            session = [session_id, None]
            sessions.append(session)
        else:
            if not sessions:
                continue
            session = sessions[gesture[1] % len(sessions)]
            focus = gesture[2]
            if focus == "clade_none":
                with pytest.raises(MobileError):
                    server.navigate(session[0], focus)
                continue
            response = server.navigate(session[0], focus)
        payload = expected_payload(drugtree, focus, tripped)
        expected = expected_frame(session[1], payload)
        assert response.message.kind == expected.kind, gesture
        assert response.message.data == expected.data, gesture
        assert prefetched == ([] if tripped
                              else [visible_leaves(payload)]), gesture
        session[1] = payload


def equivalence(world, server_class, phases=tuple(Phase)):
    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None, phases=phases)
    @given(script=gestures)
    def check(script):
        replay(world, server_class, script)
    return check


def test_every_render_equals_a_from_scratch_render(world):
    equivalence(world, DrugTreeServer)()


# -- planted bugs: each must fail the property --------------------------------

class StampBlindServer(DrugTreeServer):
    """Planted bug: a newer data version is adopted without emptying
    the memos, so an insert's new clade summaries never reach a
    memoized viewport."""

    def _restamp(self, version):
        self._memo_version = max(self._memo_version, version)


class MemoizesDegradedServer(DrugTreeServer):
    """Planted bug: a degraded render is memoized under the healthy
    key, so its ``"status": "degraded"`` leaks into later fresh
    renders of the same clade."""

    def _degraded_view(self, focus):
        view = super()._degraded_view(focus)
        shared = server_module._View(view.payload, view.full, view.leaves,
                                     next(self._view_serials))
        key = (focus, self.config.lod_max_depth, self.config.lod_max_nodes)
        with self._memo_lock:
            self._restamp(self.drugtree.data_version)
            self._views[key] = shared
        return shared


@pytest.mark.parametrize("planted", [StampBlindServer,
                                     MemoizesDegradedServer])
def test_planted_bug_fails_the_property(world, planted):
    # A planted bug only has to be found, not shrunk.
    with pytest.raises(AssertionError):
        equivalence(world, planted, phases=(Phase.generate,))()


# -- the memo outcome is on the mobile.render span ----------------------------

def test_render_span_says_hit_miss_or_skipped(world):
    dataset, drugtree = world
    server, scheduler = make_server(world)
    previous = get_tracer()
    tracer = Tracer()
    set_tracer(tracer)
    try:
        first, _ = server.open_session()       # cold: miss
        second, _ = server.open_session()      # same view, no frame: hit
        server.navigate(first, "clade_0001")   # new view: miss
        server.navigate(second, "clade_0001")  # same view and frame: hit
        breaker = scheduler.breakers.breaker("pdb-sim", "protein")
        breaker.record_failure()
        breaker.record_failure()
        server.navigate(first, "clade_0001")   # degraded: skipped
        breaker.reset()
        drugtree.add_binding(BindingRecord(
            "LIG00001", dataset.family.protein_ids[0], ActivityType.KD,
            40.0))
        server.navigate(second, "clade_0000")  # stale stamp: miss
    finally:
        set_tracer(previous)
    memo = [span.attributes["memo"] for span in tracer.finished_spans()
            if span.name == "mobile.render"]
    assert memo == ["miss", "hit", "miss", "hit", "skipped", "miss"]
