"""End-to-end tests for the multi-tenant serving frontend."""

import json
import math

import pytest

from repro.chem import ActivityType, BindingRecord
from repro.errors import OverloadError, ServingError
from repro.mobile.lod import render_viewport
from repro.mobile.protocol import full_message
from repro.mobile.server import DrugTreeServer, ServerConfig
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_S, Histogram
from repro.serving import (
    AdmissionConfig,
    FrontendConfig,
    Request,
    ServingFrontend,
    TenantConfig,
    tenancy,
)
from repro.serving import cache as cache_front
from repro.serving.admission import REASON_LATE
from repro.sources import (
    BreakerConfig,
    FaultSchedule,
    FetchScheduler,
    Outage,
    wrap_registry,
)
from repro.workloads import (
    DatasetConfig,
    LoadConfig,
    TenantLoad,
    build_dataset,
    generate_load,
)


@pytest.fixture(autouse=True)
def _fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def _world(seed=17):
    dataset = build_dataset(DatasetConfig(n_leaves=24, n_ligands=40,
                                          seed=seed))
    drugtree = dataset.drugtree()
    scheduler = FetchScheduler(dataset.registry)
    server = DrugTreeServer(
        drugtree, ServerConfig(use_delta=False, tap_deadline_s=0.8),
        federation=scheduler)
    return dataset, server


def _frontend(dataset, server, **kwargs):
    kwargs.setdefault("workers", 4)
    tenants = kwargs.pop("tenants", None)
    return ServingFrontend(server, dataset.clock,
                           FrontendConfig(**kwargs), tenants=tenants)


def _renders(tenant, count, spacing=0.5, target="clade_0001"):
    return [Request(tenant=tenant, session=f"{tenant}-u{i % 3}",
                    kind="render", target=target,
                    arrival_s=i * spacing, seq=i)
            for i in range(count)]


class TestBreakerBoard:
    def test_admission_reads_the_servers_scheduler_board(self):
        dataset, plain = _world()
        assert _frontend(dataset, plain).admission.breakers is None
        scheduler = FetchScheduler(dataset.registry,
                                   breaker_config=BreakerConfig())
        server = DrugTreeServer(dataset.drugtree(),
                                ServerConfig(use_delta=False),
                                federation=scheduler)
        board = _frontend(dataset, server).admission.breakers
        assert board is scheduler.breakers is not None


class TestRequestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServingError):
            Request(tenant="a", session="s", kind="teleport",
                    target="x", arrival_s=0.0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ServingError):
            Request(tenant="a", session="s", kind="render",
                    target="x", arrival_s=-1.0)


class TestServing:
    def test_serves_a_mixed_stream_within_slo(self):
        dataset, server = _world()
        requests = generate_load(
            dataset.family.clade_names, dataset.family.protein_ids,
            LoadConfig(tenants=(TenantLoad("acme", 6.0),),
                       duration_s=10.0, seed=5))
        frontend = _frontend(dataset, server)
        report = frontend.run(requests)
        assert report.offered == len(requests)
        assert report.completed + report.shed + sum(
            t.failed for t in report.tenants.values()) == report.offered
        assert report.goodput > 0.9
        assert report.makespan_s > 0

    def test_cache_hits_on_repeated_renders(self):
        dataset, server = _world()
        frontend = _frontend(dataset, server)
        report = frontend.run(_renders("a", 6))
        assert report.tenants["a"].cache_hits == 5
        hits = [o for o in frontend.outcomes if o.cache == "hit"]
        assert len(hits) == 5
        assert all(o.service_s < 0.01 for o in hits)

    def test_a_second_run_reports_only_its_own_requests(self):
        dataset, server = _world()
        frontend = _frontend(dataset, server, workers=1)
        requests = _renders("a", 13, spacing=0.01)
        first = frontend.run(requests)
        second = frontend.run(requests)
        assert len(frontend.outcomes) == 13
        for report in (first, second):
            tenant = report.tenants["a"]
            assert report.offered == tenant.offered == 13
            assert tenant.admitted + tenant.shed == 13
            assert tenant.completed + tenant.failed == tenant.admitted
        tenant = second.tenants["a"]
        assert tenant.shed == sum(o.shed for o in frontend.outcomes)
        assert tenant.cache_hits == sum(o.cache == "hit"
                                        for o in frontend.outcomes)

    def test_queries_execute_against_the_engine(self):
        dataset, server = _world()
        clade = dataset.family.clade_names[0]
        frontend = _frontend(dataset, server)
        report = frontend.run([Request(
            tenant="a", session="a-u0", kind="query",
            target=f"SELECT count(*) IN SUBTREE '{clade}'",
            arrival_s=0.0)])
        assert report.completed == 1
        assert frontend.outcomes[0].rows == 1

    def test_bad_query_fails_without_shedding(self):
        dataset, server = _world()
        frontend = _frontend(dataset, server)
        report = frontend.run([Request(
            tenant="a", session="a-u0", kind="query",
            target="SELECT nonsense_column FROM bindings",
            arrival_s=0.0)])
        assert report.tenants["a"].failed == 1
        assert report.shed == 0
        assert frontend.outcomes[0].reason == "MobileError"

    def test_session_reopened_after_server_eviction(self, monkeypatch):
        monkeypatch.setattr("repro.mobile.server.MAX_SESSIONS", 1)
        dataset, _ = _world()
        server = DrugTreeServer(
            dataset.drugtree(), ServerConfig(use_delta=False),
            federation=FetchScheduler(dataset.registry))
        # No cache front: every render must reach the server and trip
        # over the evicted session.
        frontend = _frontend(dataset, server, use_cache=False)
        requests = []
        for i in range(6):
            # Alternating sessions with a 1-session server table: every
            # request after the first two finds its session evicted.
            requests.append(Request(
                tenant="a", session=f"a-u{i % 2}", kind="render",
                target="clade_0001", arrival_s=i * 1.0, seq=i))
        report = frontend.run(requests)
        assert report.completed == 6
        reopened = get_metrics().counter(
            "serving.sessions_reopened").value
        assert reopened >= 1

    def test_rejected_requests_cost_no_virtual_time(self, monkeypatch):
        monkeypatch.setattr("repro.serving.tenancy.QUEUE_LIMIT", 1)
        dataset, server = _world()
        # One worker and a one-deep queue: of 500 simultaneous arrivals
        # one runs, one waits, and the rest are shed at the door.
        frontend = _frontend(dataset, server, workers=1,
                             tenants=[TenantConfig("a")])
        before = dataset.clock.now()
        requests = [Request(tenant="a", session="a-u0", kind="render",
                            target="clade_0001", arrival_s=0.0, seq=i)
                    for i in range(500)]
        report = frontend.run(requests)
        elapsed = dataset.clock.now() - before
        assert report.shed == 498
        assert report.completed == 2
        # 498 rejections charge nothing: the makespan is two renders.
        assert elapsed < 0.5
        shed = [o for o in frontend.outcomes if o.shed]
        assert all(o.latency_s == 0.0 and o.service_s == 0.0
                   for o in shed)
        assert all(isinstance(o.error, OverloadError) for o in shed)
        assert all(o.error.retry_after_s > 0 for o in shed)

    def test_naive_fifo_mode_never_sheds(self):
        dataset, server = _world()
        frontend = _frontend(dataset, server, policy="fifo",
                             admission=None)
        report = frontend.run(_renders("a", 20, spacing=0.01))
        assert report.shed == 0
        assert report.completed == 20

    def test_serving_metrics_published(self):
        dataset, server = _world()
        frontend = _frontend(dataset, server)
        frontend.run(_renders("a", 4))
        counters = get_metrics().counter_values("serving.")
        assert counters["serving.requests"] == 4
        assert counters["serving.admitted"] == 4
        summary = get_metrics().histogram(
            "serving.tenant.a.latency_s").summary()
        assert summary["count"] == 4
        assert summary["p99"] >= summary["p50"] >= 0

    def test_report_is_json_native(self):
        dataset, server = _world()
        frontend = _frontend(dataset, server)
        report = frontend.run(_renders("a", 3))
        payload = report.as_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestCacheFrontAcrossAnInsert:
    """No front entry outlives a write to the overlay."""

    def test_query_and_render_entries_expire_with_the_data_version(self):
        dataset, server = _world()
        drugtree = server.drugtree
        clade = dataset.family.clade_names[1]
        text = f"SELECT * FROM bindings IN SUBTREE '{clade}'"
        frontend = _frontend(dataset, server, workers=1)

        def requests(at_s):
            return [Request(tenant="a", session="a-u0", kind=kind,
                            target=target, arrival_s=at_s + offset)
                    for offset, kind, target in ((0.0, "query", text),
                                                 (1.0, "render", clade))]

        frontend.run(requests(0.0))
        frontend.run(requests(10.0))
        assert [o.cache for o in frontend.outcomes] == ["hit", "hit"]
        before = frontend.outcomes[0].rows
        leaf = next(name for name in drugtree.tree.leaf_names()
                    if drugtree.labeling.is_ancestor(clade, name))
        drugtree.add_binding(BindingRecord("LIG00000", leaf,
                                           ActivityType.KI, 5.0))

        frontend.run(requests(20.0))
        assert [o.cache for o in frontend.outcomes] == ["miss", "miss"]
        assert frontend.outcomes[0].rows == before + 1
        # What the front holds now is the post-insert render.
        entry = frontend.cache.get(("render", clade), "a",
                                   drugtree.data_version)
        assert entry.value.message.data == full_message(
            render_viewport(drugtree, clade)).data


class TestCacheFrontUnderFaults:
    """The shared cache keeps answers, never descriptions of a fault."""

    DETAILS_QUERY = "SELECT protein_id, method FROM proteins"

    def _requests(self, dataset, tenant, at_s):
        protein = dataset.family.protein_ids[0]
        return [
            Request(tenant=tenant, session=f"{tenant}-u0", kind="details",
                    target=protein, arrival_s=at_s),
            Request(tenant=tenant, session=f"{tenant}-u0", kind="query",
                    target=self.DETAILS_QUERY, arrival_s=at_s + 1.0),
        ]

    def test_degraded_answers_do_not_outlive_the_outage(self):
        dataset = build_dataset(DatasetConfig(n_leaves=24, n_ligands=40,
                                              seed=17))
        drugtree = dataset.drugtree()
        now = dataset.clock.now()
        outage = FaultSchedule([Outage(now, now + 50.0)])
        scheduler = FetchScheduler(
            wrap_registry(dataset.registry, outage),
            breaker_config=BreakerConfig(failure_threshold=2,
                                         reset_timeout_s=10.0))
        server = DrugTreeServer(
            drugtree, ServerConfig(use_delta=False, tap_deadline_s=0.8),
            federation=scheduler)
        frontend = _frontend(dataset, server, tenants=[
            TenantConfig("a"), TenantConfig("b")])

        report = frontend.run(
            self._requests(dataset, "a", 1.0)      # into the outage
            + self._requests(dataset, "b", 5.0)    # still dark
            + self._requests(dataset, "a", 200.0)  # healed
            + self._requests(dataset, "b", 210.0))
        assert report.completed == 8
        by_arrival = sorted(frontend.outcomes,
                            key=lambda o: o.request.arrival_s)
        # Nothing answered during the outage was stored: tenant b's
        # taps miss, and so do tenant a's first taps after the heal.
        assert [o.cache for o in by_arrival] == ["miss"] * 6 + ["hit"] * 2
        assert get_metrics().counter(
            "mobile.degraded_responses").value >= 4
        # What the front holds now came from the healthy sources.
        stored = [entry.value for entry in frontend.cache._entries.values()]
        assert len(stored) == 2
        assert all(response.status == "fresh" for response in stored)
        assert all("status" not in response.message.payload()
                   for response in stored)


class _PerRequest(ServingFrontend):
    """The frontend accounting each request where it happens, into a
    registry of its own: what the run's one publish must equal."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reference = ref = MetricsRegistry()
        enqueue = self.scheduler.try_enqueue

        def try_enqueue(request, now, cost_s):
            if not enqueue(request, now, cost_s):
                return False
            ref.counter("serving.admitted").inc()
            ref.gauge("serving.queue_depth").set(len(self.scheduler))
            return True

        get, remove = self.cache.get, self.cache._remove

        def counted_get(key, tenant_id, version):
            entry = get(key, tenant_id, version)
            if entry is None:
                ref.counter("serving.cache.misses").inc()
            else:
                ref.counter("serving.cache.hits").inc()
                if entry.owner != tenant_id:
                    ref.counter("serving.cache.cross_tenant_hits").inc()
            return entry

        def counted_remove(key):
            remove(key)
            ref.counter("serving.cache.evictions").inc()

        self.scheduler.try_enqueue = try_enqueue
        self.cache.get = counted_get
        self.cache._remove = counted_remove

    def _arrive(self, request, *args) -> None:
        self.reference.counter("serving.requests").inc()
        super()._arrive(request, *args)

    def _shed(self, request, rejection) -> None:
        self.reference.counter("serving.shed").inc()
        self.reference.counter(f"serving.shed.{rejection.reason}").inc()
        super()._shed(request, rejection)

    def _dispatch_ready(self, *args) -> None:
        super()._dispatch_ready(*args)
        self.reference.gauge("serving.queue_depth").set(
            len(self.scheduler))

    def _complete(self, outcome) -> None:
        ref = self.reference
        if outcome.status == "failed":
            ref.counter("serving.failed").inc()
        else:
            ref.counter("serving.completed").inc()
            if outcome.latency_s <= self.config.slo_s:
                ref.counter("serving.goodput").inc()
        for name in ("serving.latency_s",
                     f"serving.tenant.{outcome.request.tenant}.latency_s"):
            ref.histogram(name).observe(outcome.latency_s)
        ref.histogram("serving.queue_wait_s").observe(outcome.queued_s)
        super()._complete(outcome)


def _serving(registry):
    """Every ``serving.*`` value the frontend accounts per run (session
    opens are counted where they happen, by both)."""
    snapshot = registry.snapshot()
    return {kind: {name: value for name, value in values.items()
                   if name.startswith("serving.")
                   and not name.startswith("serving.sessions_")}
            for kind, values in snapshot.items()}


class TestPublishedOncePerRun:
    """The run's one publish equals accounting each request as it
    happens: every counter, each histogram's ``as_dict()``, the gauge."""

    @pytest.fixture
    def tight(self, monkeypatch):
        # One worker, a session table of three, six-deep queues and an
        # eight-entry cache front: every shed reason, session reopens
        # and evictions within a few seconds of two-tenant load.
        monkeypatch.setattr("repro.mobile.server.MAX_SESSIONS", 3)
        monkeypatch.setattr(tenancy, "QUEUE_LIMIT", 6)
        monkeypatch.setattr(cache_front, "FRONT_CAPACITY", 8)

    def _frontend(self):
        dataset, server = _world()
        frontend = _PerRequest(
            server, dataset.clock,
            FrontendConfig(workers=1, slo_s=0.15,
                           admission=AdmissionConfig(slo_s=0.3)),
            tenants=[TenantConfig("calm"),
                     TenantConfig("flood", weight=2.0)])
        return dataset, frontend

    def _stream(self, dataset, seed):
        requests = generate_load(
            dataset.family.clade_names, dataset.family.protein_ids,
            LoadConfig(tenants=(TenantLoad("calm", 3.0),
                                TenantLoad("flood", 40.0)),
                       duration_s=4.0, think_mean_s=0.2, seed=seed))
        requests.append(Request(
            tenant="calm", session="calm-bad", kind="query",
            target="SELECT nonsense_column FROM bindings",
            arrival_s=1.0, seq=len(requests)))
        return requests

    @pytest.mark.parametrize("seed", [2, 3])
    def test_publish_equals_per_request_accounting(self, tight, seed):
        dataset, frontend = self._frontend()
        # Two runs on one frontend: the second publishes only what it
        # added, the cache front's counts included.
        outcomes = []
        for run_seed in (seed, seed + 10):
            frontend.run(self._stream(dataset, run_seed))
            assert _serving(get_metrics()) == _serving(frontend.reference)
            outcomes += frontend.outcomes
        assert {o.reason for o in outcomes if o.shed} == {
            "queue_full", "overload", REASON_LATE}
        assert sum(o.status == "failed" for o in outcomes) >= 1
        assert get_metrics().counter_values()[
            "serving.sessions_reopened"] > 0
        counters = get_metrics().counter_values("serving.cache.")
        assert counters["serving.cache.evictions"] > 0
        assert counters["serving.cache.hits"] > 0

    def test_a_planted_publish_that_drops_late_sheds_fails(
            self, tight, monkeypatch):
        publish = ServingFrontend._publish

        def drops_late(frontend, cache_before):
            kept = frontend.outcomes
            frontend.outcomes = [o for o in kept
                                 if o.reason != REASON_LATE]
            try:
                publish(frontend, cache_before)
            finally:
                frontend.outcomes = kept

        monkeypatch.setattr(ServingFrontend, "_publish", drops_late)
        dataset, frontend = self._frontend()
        frontend.run(self._stream(dataset, 3))
        assert _serving(get_metrics()) != _serving(frontend.reference)

    def test_a_planted_publish_that_counts_hits_twice_fails(
            self, tight, monkeypatch):
        publish = ServingFrontend._publish

        def hits_twice(frontend, cache_before):
            publish(frontend, cache_before)
            get_metrics().counter("serving.cache.hits").inc(
                frontend.cache.hits - cache_before[0])

        monkeypatch.setattr(ServingFrontend, "_publish", hits_twice)
        dataset, frontend = self._frontend()
        frontend.run(self._stream(dataset, 3))
        assert _serving(get_metrics()) != _serving(frontend.reference)

    def test_a_run_with_no_requests_creates_no_instrument(self):
        dataset, server = _world()
        _frontend(dataset, server).run([])
        assert _serving(get_metrics()) == {
            "counters": {}, "gauges": {}, "histograms": {}}


class TestObserveMany:
    """``observe_many`` is ``observe`` once per value, bit for bit."""

    EDGES = list(DEFAULT_LATENCY_BUCKETS_S)
    VALUES = [
        0.0, -1.0, 1e-12, 0.1 + 0.2, 0.0005, 0.00049999, 5.0, 5.0000001,
        1e9, math.inf, *EDGES, *(edge * 3.7 for edge in EDGES), 0.3,
    ]

    def _pair(self):
        return (Histogram("one_by_one"), Histogram("many"))

    @pytest.mark.parametrize("values", [
        [], [0.25], VALUES, list(reversed(VALUES)), [7.0] * 5,
    ])
    def test_same_as_observe_per_value(self, values):
        one_by_one, many = self._pair()
        for value in values:
            one_by_one.observe(value)
        many.observe_many(values)
        assert many.as_dict() == one_by_one.as_dict()
        assert repr(many.as_dict()) == repr(one_by_one.as_dict())

    def test_adds_to_what_is_already_there(self):
        one_by_one, many = self._pair()
        for histogram in (one_by_one, many):
            histogram.observe(0.7)
            histogram.observe(100.0)
        for value in self.VALUES:
            one_by_one.observe(value)
        many.observe_many(iter(self.VALUES))
        assert repr(many.as_dict()) == repr(one_by_one.as_dict())
        assert many.overflow == one_by_one.overflow >= 4

    def test_empty_list_changes_nothing(self):
        histogram = Histogram("h")
        before = repr(histogram.as_dict())
        histogram.observe_many([])
        assert repr(histogram.as_dict()) == before
        assert histogram.minimum is None and histogram.count == 0
