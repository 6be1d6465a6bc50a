"""Span recorders around the public entry points of each layer.

The program is not edited: while a :class:`Tracer` is installed, class
methods are replaced on their class and module functions are replaced
in *every* ``repro`` (and ``ledger``) namespace that imported them (``from x import f``
copies the binding, so patching only the defining module would miss
most call sites). Uninstalling puts every original object back.

One span = one call: name, start, end, and the span that was open when
it started. Spans are folded as they close instead of being kept: a
span's *self time* is its duration minus the part its child spans
cover, and per span name the tracer keeps calls, total ns and self ns.
Self times therefore partition the time inside root spans — summed
over all names they can never exceed the wall time of the traced ops,
which is what makes "share of a tap spent in layer X" meaningful.

Spans are recorded only inside an interval the harness is timing
(``ledger.harness.Stopwatch.timed`` is patched too, as the root of every
span tree), and ``op_ns`` is the wall those intervals cover. What the
program does between ops — a store closing, the oracle rendering its
own viewport — is neither an op nor a span.

Only the thread that installed the tracer is traced; calls made by the
program's worker pools (router fan-out, fetch scheduler, morsels) run
the original function directly and their time stays in the self time
of the span that waited for them.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

#: (span name, "module:Class.method" | "module:function").
#: The span name's prefix up to the last dot is its layer.
TARGETS = (
    ("workloads.datasets.build_dataset",
     "repro.workloads.datasets:build_dataset"),
    ("workloads.loadgen.generate_load",
     "repro.workloads.loadgen:generate_load"),
    ("core.integrate.build_drugtree",
     "repro.core.integrate:IntegrationPipeline.build_drugtree"),
    ("serving.frontend.run",
     "repro.serving.frontend:ServingFrontend.run"),
    ("serving.admission.decide",
     "repro.serving.admission:AdmissionController.decide"),
    ("serving.scheduler.try_enqueue",
     "repro.serving.scheduler:FairScheduler.try_enqueue"),
    ("serving.scheduler.pop",
     "repro.serving.scheduler:FairScheduler.pop"),
    ("serving.cache.get", "repro.serving.cache:SharedCacheFront.get"),
    ("serving.cache.put", "repro.serving.cache:SharedCacheFront.put"),
    ("mobile.server.open_session",
     "repro.mobile.server:DrugTreeServer.open_session"),
    ("mobile.server.navigate",
     "repro.mobile.server:DrugTreeServer.navigate"),
    ("mobile.server.query", "repro.mobile.server:DrugTreeServer.query"),
    ("mobile.server.protein_details",
     "repro.mobile.server:DrugTreeServer.protein_details"),
    ("mobile.lod.render_viewport", "repro.mobile.lod:render_viewport"),
    ("mobile.protocol.full_message",
     "repro.mobile.protocol:full_message"),
    ("mobile.protocol.delta_message",
     "repro.mobile.protocol:delta_message"),
    ("core.query.parser.parse_query",
     "repro.core.query.parser:parse_query"),
    ("core.query.parser.tokenize", "repro.core.query.parser:tokenize"),
    ("analysis.dtql.check", "repro.analysis.dtql:SemanticAnalyzer.check"),
    ("core.query.cache.lookup",
     "repro.core.query.cache:SemanticCache.lookup"),
    ("core.query.cache.store",
     "repro.core.query.cache:SemanticCache.store"),
    ("core.query.planner.plan", "repro.core.query.planner:Planner.plan"),
    ("core.query.adaptive.choose_engine",
     "repro.core.query.adaptive:choose_engine"),
    ("core.query.executor.execute",
     "repro.core.query.executor:QueryEngine.execute"),
    ("storage.table.insert", "repro.storage.table:Table.insert"),
    ("storage.durable.wal.append",
     "repro.storage.durable.wal:WriteAheadLog.append"),
    ("storage.durable.wal.sync",
     "repro.storage.durable.wal:WriteAheadLog.sync"),
    ("storage.durable.db.flush",
     "repro.storage.durable.db:Database.flush"),
    ("storage.durable.db.compact_level",
     "repro.storage.durable.db:Database.compact_level"),
    ("sources.scheduler.fetch_all",
     "repro.sources.scheduler:FetchScheduler.fetch_all"),
    ("sources.scheduler.fetch_all_resilient",
     "repro.sources.scheduler:FetchScheduler.fetch_all_resilient"),
    ("cluster.partitioning.partitions_for_query",
     "repro.cluster.partitioning:partitions_for_query"),
    ("cluster.router.read_partitions",
     "repro.cluster.router:Router.read_partitions"),
    ("cluster.router.write", "repro.cluster.router:Router.write"),
    ("cluster.engine.execute",
     "repro.cluster.engine:ClusterEngine.execute"),
    ("cluster.engine.insert",
     "repro.cluster.engine:ClusterEngine.insert"),
)


#: Packages whose modules may hold a copied binding of a traced
#: function: the program, and the ledger's own workload modules.
_NAMESPACES = ("repro", "ledger")


def resolve(target: str) -> tuple[object, str]:
    """``(owner, attribute)`` of a ``module:Class.method`` or
    ``module:function`` target: the class or the defining module."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute


def recorder_cost_ns(calls: int = 20_000, batches: int = 5) -> float:
    """Wall ns one recorder adds to the call it wraps, measured now:
    the cheapest of a few batches of a recorded no-op against the bare
    no-op (the minimum, because a host hiccup only ever adds)."""
    def noop(receiver, argument, option=None):
        return None

    scratch = Tracer()
    scratch._ops_open = 1
    scratch._open.append([0, 0])    # recorded as a nested span, as most are
    recorded = scratch._wrap("calibration", noop)

    def batch(call) -> int:
        start = perf_counter_ns()
        for _ in range(calls):
            call(scratch, calls, option=batches)   # a method call's shape
        return perf_counter_ns() - start

    return max(0.0, min(batch(recorded) - batch(noop)
                        for _ in range(batches)) / calls)


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


class Tracer:
    """Installs the span recorders and folds the spans they produce."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        #: span name -> callables given each return value (counts taken
        #: where the work happens, without a second wrapper).
        self.on_return: dict[str, list] = defaultdict(list)
        #: What :meth:`end_setup` set aside, same three tallies by name.
        self.setup_spans: dict[str, dict] = {"calls": {}, "total_ns": {},
                                             "self_ns": {}}
        #: Wall ns of the harness-timed intervals spans were recorded in.
        self.op_ns = 0
        self._ops_open = 0
        self._open: list[list[int]] = []      # [covered, holes] per span
        self._thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, original):
        open_spans, calls = self._open, self.calls
        total_ns, self_ns = self.total_ns, self.self_ns
        taps, owner = self.on_return[name], self._thread
        get_ident = threading.get_ident

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self._ops_open or get_ident() != owner:
                return original(*args, **kwargs)
            frame = [0, 0]     # ns covered by child spans, ns of holes
            open_spans.append(frame)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start - frame[1]
                open_spans.pop()
                calls[name] += 1
                total_ns[name] += duration
                self_ns[name] += duration - frame[0]
                if open_spans:
                    open_spans[-1][0] += duration
                    open_spans[-1][1] += frame[1]
            for tap in taps:
                tap(result)
            return result

        return traced

    def _wrap_hole(self, original):
        """A call whose time belongs to no span: the stopwatch taking a
        host-speed sample inside an op (the stopwatch leaves it out of
        the op's wall, so every open span must leave it out too)."""
        open_spans = self._open

        @functools.wraps(original)
        def hole(*args):
            start = perf_counter_ns()
            try:
                return original(*args)
            finally:
                if open_spans:
                    open_spans[-1][1] += perf_counter_ns() - start

        return hole

    def _wrap_timed(self, original):
        """``Stopwatch.timed`` with the tracer told an op is open."""
        @functools.wraps(original)
        def timed(watch, call, *args):
            self._ops_open += 1
            try:
                timing = original(watch, call, *args)
            finally:
                self._ops_open -= 1
            if not self._ops_open:  # nested timings are already inside
                self.op_ns += watch.raw_ns
            return timing

        return timed

    # -- patching -----------------------------------------------------------

    def _replace(self, owner, attribute: str, replacement) -> None:
        self._patched.append((owner, attribute,
                              owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> "Tracer":
        import repro
        from ledger import harness
        # Import every module now: one imported lazily *after* the
        # patch would copy a recorder with ``from x import f`` and keep
        # it past uninstall.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        self._replace(harness.Stopwatch, "timed",
                      self._wrap_timed(harness.Stopwatch.timed))
        self._replace(harness.Stopwatch, "_sample",
                      self._wrap_hole(harness.Stopwatch._sample))
        for name, target in TARGETS:
            owner, attribute = resolve(target)
            original = owner.__dict__[attribute]
            traced = self._wrap(name, original)
            if isinstance(owner, type):
                self._replace(owner, attribute, traced)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith(_NAMESPACES):
                    for copied, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, copied, traced)
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` of every live patch."""
        return list(self._patched)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def end_setup(self) -> None:
        """Set aside what was folded so far as ``setup_spans`` and
        start again from zero: set-up is traced, but its spans must not
        blend into the ops' (``tap_mix`` never inserts a row; its
        set-up inserts thousands)."""
        self.setup_spans = {"calls": dict(self.calls),
                            "total_ns": dict(self.total_ns),
                            "self_ns": dict(self.self_ns)}
        for tally in (self.calls, self.total_ns, self.self_ns):
            tally.clear()
        self.op_ns = 0

    def rescale(self, factor: float) -> None:
        """Multiply every folded duration by *factor* (raw ns to the
        stopwatch's reference ns, by the run's median host speed)."""
        for tally in (self.total_ns, self.self_ns,
                      self.setup_spans["total_ns"],
                      self.setup_spans["self_ns"]):
            for span in tally:
                tally[span] *= factor
        self.op_ns *= factor

    # -- reading ------------------------------------------------------------

    def self_us_per(self, spans: tuple[str, ...] | str,
                    per: str | None = None) -> float:
        """Summed self time of *spans* in us, per call of span *per*
        (default: the first of *spans*); 0.0 when it never ran."""
        if isinstance(spans, str):
            spans = (spans,)
        calls = self.calls.get(per or spans[0], 0)
        if not calls:
            return 0.0
        return sum(self.self_ns.get(span, 0)
                   for span in spans) / calls / 1e3

    def table(self) -> list[dict]:
        """One row per span name, slowest self time first."""
        return [
            {"span": span, "layer": layer_of(span),
             "calls": self.calls[span],
             "total_ms": round(self.total_ns[span] / 1e6, 3),
             "self_ms": round(self.self_ns[span] / 1e6, 3)}
            for span in sorted(self.self_ns,
                               key=self.self_ns.get, reverse=True)
        ]
