"""A move is framed as the smaller of its delta and the full frame.

``DrugTreeServer._frame`` ships the delta only when its wire bytes are
strictly smaller than the full frame's, and never diffs a move between
two views that share no node id: such a delta carries the whole new
``nodes`` dict plus a drop list of the old one, so it cannot win.

The proof below is exhaustive on two small worlds (the render-memo
tests' world and the ``tap_mix`` workload's tiny world): every ordered
pair of views over every named node, normal to normal, normal to
degraded and degraded to normal, framed by the server and compared
byte for byte with the smaller of a fresh delta and a fresh full
frame. Two planted rules, named below, must each fail it.
"""

import itertools

import pytest

from ledger.workloads.tap_mix import TINY_WORLD
from repro.mobile import DrugTreeServer
from repro.mobile import server as server_module
from repro.mobile.protocol import delta_message, full_message
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.sources import FetchScheduler
from repro.workloads import DatasetConfig, build_dataset

RENDER_MEMO_WORLD = DatasetConfig(n_leaves=24, n_ligands=20, seed=23)


@pytest.fixture(scope="module", params=[RENDER_MEMO_WORLD, TINY_WORLD],
                ids=["render_memo", "tap_mix_tiny"])
def world(request):
    dataset = build_dataset(request.param)
    return dataset, dataset.drugtree()


@pytest.fixture(autouse=True)
def fresh_metrics():
    registry = MetricsRegistry()
    previous = get_metrics()
    set_metrics(registry)
    yield registry
    set_metrics(previous)


def named_nodes(drugtree):
    return [node.name for node in drugtree.tree.preorder() if node.name]


def smaller_frame(previous, payload):
    full = full_message(payload)
    delta = delta_message(previous, payload)
    return delta if delta.wire_bytes < full.wire_bytes else full


def misframed_moves(world, server_class):
    """Yield every move *server_class* frames otherwise than the smaller
    of delta and full."""
    dataset, drugtree = world
    server = server_class(drugtree)
    names = named_nodes(drugtree)
    normal = [server._view(name)[0] for name in names]
    degraded = [server._degraded_view(name) for name in names]
    for before, after in itertools.chain(
            itertools.product(normal, normal),
            itertools.product(normal, degraded),
            itertools.product(degraded, normal)):
        got, _ = server._frame(before, after)
        want = smaller_frame(before.payload, after.payload)
        if (got.kind, got.data) != (want.kind, want.data):
            yield before.payload["focus"], after.payload["focus"]


def test_every_move_ships_the_smaller_frame(world):
    assert list(misframed_moves(world, DrugTreeServer)) == []


def test_the_worlds_hold_disjoint_and_overlapping_moves(world):
    # The proof covers both sides of the rule: moves that share no node
    # (never diffed) and moves whose delta is the smaller frame.
    dataset, drugtree = world
    server = DrugTreeServer(drugtree)
    views = [server._view(name)[0] for name in named_nodes(drugtree)]
    disjoint = deltas = 0
    for before, after in itertools.product(views, views):
        if before.payload["nodes"].keys().isdisjoint(after.payload["nodes"]):
            disjoint += 1
        elif server._frame(before, after)[0] is not after.full:
            deltas += 1
    assert disjoint > 0 and deltas > 0


# -- planted rules: each must fail the property -------------------------------

class AlwaysFullServer(DrugTreeServer):
    """Planted rule: ship the full frame for every move."""

    def _frame(self, previous, view):
        return view.full, True


class HalfSharedServer(DrugTreeServer):
    """Planted rule: skip the diff whenever fewer than half of the new
    view's nodes are shared with the previous view."""

    def _frame(self, previous, view):
        nodes = view.payload["nodes"]
        shared = previous.payload["nodes"].keys() & nodes.keys()
        if 2 * len(shared) < len(nodes):
            return view.full, True
        return super()._frame(previous, view)


@pytest.mark.parametrize("planted", [AlwaysFullServer, HalfSharedServer])
def test_planted_rule_fails_the_property(world, planted):
    assert next(misframed_moves(world, planted), None) is not None


# -- a disjoint move is not diffed --------------------------------------------

def count_deltas(monkeypatch):
    calls = []
    real = server_module.delta_message

    def counting(previous, current):
        calls.append(current["focus"])
        return real(previous, current)

    monkeypatch.setattr(server_module, "delta_message", counting)
    return calls


def test_a_move_sharing_no_node_computes_no_delta(world, monkeypatch,
                                                  fresh_metrics):
    dataset, drugtree = world
    server = DrugTreeServer(drugtree,
                            federation=FetchScheduler(dataset.registry))
    session_id, opened = server.open_session()
    root_nodes = opened.message.payload()["nodes"].keys()
    far = next(name for name in named_nodes(drugtree)
               if server._view(name)[0].payload["nodes"].keys()
               .isdisjoint(root_nodes))
    near = next(name for name in named_nodes(drugtree)
                if name != server._root_name
                and not server._view(name)[0].payload["nodes"].keys()
                .isdisjoint(root_nodes))
    calls = count_deltas(monkeypatch)

    away = server.navigate(session_id, far)
    assert calls == []
    assert away.message.data == full_message(
        server._view(far)[0].payload).data
    counters = fresh_metrics.snapshot()["counters"]
    assert "mobile.frames.diffed" not in counters

    server.navigate(session_id, server._root_name)  # disjoint again
    server.navigate(session_id, near)               # overlapping: diffed
    assert calls == [near]
    counters = fresh_metrics.snapshot()["counters"]
    assert counters["mobile.frames.diffed"] == 1
