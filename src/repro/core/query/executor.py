"""The optimized query engine: plan, cache, execute, meter.

:class:`QueryEngine` is the "after" system of the poster: it wires the
planner, the semantic cache, the similarity search and the physical
operators over one :class:`~repro.core.drugtree.DrugTree`, and reports
per-query metrics (rows touched, cache outcome, wall time) that the
benchmarks aggregate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any

from repro.chem.fingerprint import circular_fingerprint, tanimoto
from repro.chem.smiles import parse_smiles
from repro.core.drugtree import DrugTree
from repro.chem.substructure import SubstructurePattern, filter_library
from repro.core.query.adaptive import EngineChoice, choose_engine
from repro.core.query.ast import (
    REMOTE_DETAIL_COLUMNS,
    Query,
    SimilarityFilter,
    SubstructureFilter,
)
from repro.core.query.cache import SemanticCache, column_reader
from repro.core.query.cards import CardinalityEstimator
from repro.core.query.logical import (
    LogicalAggregate,
    LogicalCladeAggregate,
    LogicalHaving,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalOrder,
    LogicalProject,
    LogicalScan,
    rows_estimate,
)
from repro.core.query.parser import parse_query
from repro.core.query.physical import (
    ExecCounters,
    FilterOp,
    HashAggregateOp,
    HashJoinOp,
    IndexEqScanOp,
    IndexRangeScanOp,
    KeySetScanOp,
    LimitOp,
    NestedLoopJoinOp,
    PhysicalOp,
    ProjectOp,
    RemoteFetchOp,
    SeqScanOp,
    SortOp,
    StaticRowsOp,
    TopKOp,
)
from repro.core.query.planner import Planner, PlanReport
from repro.core.query.vectorized import IndexOrderScanOp, VectorizedLowering
from repro.errors import (
    ParseError,
    PlanError,
    QueryError,
)
from repro.obs import (
    AnalyzeReport,
    InstrumentedOp,
    OperatorStats,
    WallTimer,
    get_metrics,
    get_tracer,
)
from repro.sources.resilience import STATUS_FRESH, Deadline
from repro.storage.index import SortedIndex


#: DTQL texts whose analysis one engine keeps before it drops the
#: oldest. A text's analysis depends on nothing but the text and the
#: static catalog, so no write ever makes a kept one stale.
ANALYSIS_MEMO_CAPACITY = 1024


def _intake(query: Query | str) -> Query:
    """DTQL text parsed once, where no analyzer parses it (analysis
    off, the cluster router); the query keeps its tokens for spans."""
    return parse_query(query) if isinstance(query, str) else query


def _token_free(report):
    """*report* with its queries' parser tokens dropped: what the
    analysis memo keeps (every span is already on the diagnostics)."""
    query = report.query
    if query is None:
        return report
    slim = replace(query, tokens=())
    folded = report.folded
    if folded is not None:
        folded = slim if folded is query else replace(folded, tokens=())
    return replace(report, query=slim, folded=folded)


def _drain(root, mode: str) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """A plan's answer as its one column order and a value tuple per
    row: no dict for a batch plan, the row engine's converted here."""
    if mode == "vectorized":
        parts = ((batch.order, batch.tuples())
                 for batch in root.batches() if len(batch))
    else:
        parts = ((tuple(row), (tuple(row.values()),)) for row in root.rows())
    columns, values = None, []
    for order, rows in parts:  # each batch read as it comes
        if columns is None:
            columns = order
        elif order != columns:
            raise QueryError("engine bug: result rows differ in column order")
        values.extend(rows)
    return columns or (), tuple(values)


@dataclass(frozen=True)
class EngineConfig:
    """All optimizer/engine feature toggles (ablation knobs)."""

    use_indexes: bool = True
    use_interval_labeling: bool = True
    use_materialized_aggregates: bool = True
    use_semantic_cache: bool = True
    #: Run the typed-catalog semantic pass (repro.analysis.dtql) on
    #: every query: reject type/name errors before any work, answer
    #: provably-empty WHERE clauses without planning, scanning, or any
    #: source round-trip, and plan the folded query. Off, the raw
    #: query is planned and a contradictory WHERE is scanned.
    use_semantic_analysis: bool = True
    use_fingerprint_prefilter: bool = True
    use_substructure_screen: bool = True
    join_strategy: str = "dp"      # "dp" | "greedy" | "fixed"
    join_method: str = "hash"      # "hash" | "nested_loop"
    #: ``"vectorized"`` (the default: batch-at-a-time over columnar
    #: projections, except that a plan holding a node with no batch
    #: form runs on the row engine whole — see docs/EXECUTION.md) or
    #: ``"row"`` (volcano iterators: the reference the parity suites
    #: compare against). Results are identical in both modes.
    execution_mode: str = "vectorized"
    #: Rows per batch on the vectorized path.
    vector_batch_size: int = 1024

    def __post_init__(self) -> None:
        if self.execution_mode not in ("vectorized", "row"):
            raise QueryError(
                f"unknown execution mode {self.execution_mode!r} "
                "(known: 'vectorized', 'row')"
            )
        if self.vector_batch_size < 1:
            raise QueryError("vector_batch_size must be positive")
        if self.join_strategy not in ("dp", "greedy", "fixed"):
            raise PlanError(
                f"unknown join strategy {self.join_strategy!r}"
            )
        if self.join_method not in ("hash", "nested_loop"):
            raise PlanError(f"unknown join method {self.join_method!r}")


@dataclass
class QueryResult:
    """An answer — ``columns`` and one value tuple per row — plus
    everything the experiments need to know about the run."""

    columns: tuple[str, ...]
    values: tuple[tuple, ...]
    plan: PlanReport | None = None
    #: "miss" | "exact" | "subsumed" | "off"
    cache_outcome: str = "miss"
    counters: dict[str, Any] = field(default_factory=dict)
    wall_time_s: float = 0.0
    similarity_candidates: int = 0
    substructure_candidates: int = 0
    #: Record kind -> fresh/partial/missing when the resilient fetch
    #: path ran; empty otherwise.
    resilience: dict[str, str] = field(default_factory=dict)
    #: True when any part of the answer is not fresh-and-complete
    #: (partial/missing remote details).
    degraded: bool = False

    @cached_property
    def rows(self) -> list[dict[str, Any]]:
        """One dict per row, built on first access and kept."""
        columns = self.columns
        return [dict(zip(columns, values)) for values in self.values]

    def __len__(self) -> int:
        return len(self.values)

    def column(self, name: str) -> list[Any]:
        return list(map(column_reader(self.columns, name), self.values))

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.values) != 1 or len(self.columns) != 1:
            raise QueryError(
                f"scalar() needs a 1x1 result, got {len(self.values)} rows"
            )
        return self.values[0][0]


class QueryEngine:
    """Cost-based engine over one DrugTree."""

    def __init__(self, drugtree: DrugTree,
                 config: EngineConfig | None = None,
                 tracer=None,
                 metrics=None,
                 federation=None) -> None:
        self.drugtree = drugtree
        self.config = config or EngineConfig()
        #: Optional :class:`~repro.sources.scheduler.FetchScheduler`;
        #: required only for queries projecting remote detail columns.
        self.federation = federation
        self.planner = Planner(
            tables=drugtree.tables,
            labeling=drugtree.labeling,
            estimator=CardinalityEstimator(drugtree.tables),
            config=self.config,
        )
        self.cache = SemanticCache(drugtree.labeling)
        #: Per-engine overrides; ``None`` means the process-wide default.
        self.tracer = tracer
        self.metrics = metrics
        # Imported here: repro.analysis imports the query parser, so a
        # module-level import would be circular.
        from repro.analysis.dtql import SemanticAnalyzer
        self.analyzer = SemanticAnalyzer()
        #: DTQL text -> its token-free analysis report, oldest first.
        #: Guarded by ``_lock``, a leaf: no check, plan or run happens
        #: under it (two threads missing one text both check it, the
        #: later store wins).
        self._analyses: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()

    def _obs_tracer(self):
        return self.tracer if self.tracer is not None else get_tracer()

    def _obs_metrics(self):
        return self.metrics if self.metrics is not None else get_metrics()

    # -- public API ------------------------------------------------------------

    def check(self, query: Query | str):
        """Static analysis only: the semantic report, nothing executed."""
        return self.analyzer.check(query)

    def _analyze_query(self, query: Query | str):
        """The front end of ``execute``, ``analyze`` and ``explain``:
        ``(query to plan, analysis report, "memo" | "fresh" | "off")``.

        The analyzer parses text, resolves names, checks types, folds,
        and proves emptiness; its errors stop the query here, carried
        on the raised error's ``diagnostics`` (a :class:`ParseError`
        when the text did not parse). With analysis off the raw query
        is planned and the report is None.
        """
        if not self.config.use_semantic_analysis:
            return _intake(query), None, "off"
        report, analyzed = self._analysis(query)
        if report.errors:
            error = ParseError if report.query is None else QueryError
            raise error(
                "semantic analysis rejected query: "
                + "; ".join(d.render() for d in report.errors),
                diagnostics=report.errors,
            )
        return report.folded, report, analyzed

    def _analysis(self, query: Query | str):
        """``(report, "memo" | "fresh")``: DTQL text is analyzed once
        per engine, rejected text included (its report carries the
        diagnostics); a query built in code is checked every time."""
        if not isinstance(query, str):
            return self.analyzer.check(query), "fresh"
        with self._lock:
            report = self._analyses.get(query)
        if report is not None:
            return report, "memo"
        report = _token_free(self.analyzer.check(query))
        with self._lock:
            self._analyses[query] = report
            while len(self._analyses) > ANALYSIS_MEMO_CAPACITY:
                self._analyses.popitem(last=False)
        return report, "fresh"

    def _as_deadline(self, deadline) -> Deadline | None:
        """Accept a :class:`Deadline` or a float budget in virtual
        seconds (the convenient form for mobile taps and the CLI)."""
        if deadline is None or isinstance(deadline, Deadline):
            return deadline
        clock = getattr(self.federation, "clock", None)
        if clock is None:
            raise QueryError(
                "a numeric deadline needs a federated engine "
                "(the budget is measured on the scheduler's clock)"
            )
        return Deadline(clock, float(deadline))

    def execute(self, query: Query | str,
                deadline: Deadline | float | None = None) -> QueryResult:
        """Run a query (AST or DTQL text).

        With *deadline* (a :class:`Deadline` or a virtual-seconds
        budget), remote fetches are cancelled once the budget is gone
        and the answer degrades — per-kind statuses in
        :attr:`QueryResult.resilience` — instead of stalling.
        """
        metrics = self._obs_metrics()
        timer = WallTimer().start()
        query, analysis, analyzed = self._analyze_query(query)
        metrics.counter("query.executed").inc()
        result = self._run(query, analysis, analyzed, deadline,
                           instrument=False)
        result.wall_time_s = timer.stop()
        metrics.histogram("query.wall_s").observe(result.wall_time_s)
        metrics.counter("query.rows_returned").inc(len(result))
        return result

    def explain(self, query: Query | str) -> str:
        """The plan the engine would run, as indented text; for a query
        the analyzer proves empty, its ``-- analysis:`` lines instead."""
        query, analysis, _ = self._analyze_query(query)
        if analysis is not None and analysis.provably_empty:
            return "\n".join(f"-- analysis: {line}"
                             for line in analysis.summary_lines())
        ligand_keys, _, __ = self._resolve_ligand_filters(query)
        plan = self.planner.plan(query, similar_keys=ligand_keys)
        return plan.explain()

    def analyze(self, query: Query | str,
                deadline: Deadline | float | None = None) -> AnalyzeReport:
        """EXPLAIN ANALYZE: execute with per-operator instrumentation.

        Always executes fresh (like the SQL statement it imitates); the
        semantic cache is consulted only to report what outcome a normal
        ``execute`` would have seen. Per-operator spans are emitted into
        the tracer, and per-source round-trip deltas are read from the
        metrics registry, so remote traffic during execution (or its
        absence — the point of the integrated overlay) is visible.
        """
        query, analysis, analyzed = self._analyze_query(query)
        return self._run(query, analysis, analyzed, deadline,
                         instrument=True)

    def _run(self, query: Query, analysis, analyzed: str, deadline,
             instrument: bool):
        """The one query path behind ``execute`` and ``analyze``, given
        what :meth:`_analyze_query` returned.

        ``instrument=False`` answers from the semantic cache when it
        can, stores fresh answers under the data version read before
        the lookup, and returns a :class:`QueryResult`;
        ``instrument=True`` always plans and runs, wraps every operator
        for actuals, and returns an :class:`AnalyzeReport`. The
        deadline, the fetch statuses and the engine choice are locals
        handed to the lowering: nothing about one query is kept on the
        engine.
        """
        tracer = self._obs_tracer()
        metrics = self._obs_metrics()
        caching = self.config.use_semantic_cache
        if caching:
            missed = "miss"
        else:
            missed = "off (semantic cache disabled)" if instrument else "off"
        with tracer.span("query.explain_analyze" if instrument
                         else "query.execute") as span:
            span.set("analysis", analyzed)
            if analysis is not None and analysis.provably_empty:
                # The WHERE clause cannot be satisfied: answer without
                # planning, scanning, resolving similarity filters, or
                # any source round-trip.
                from repro.analysis.dtql import empty_result
                with WallTimer() as timer:
                    columns, values = empty_result(query)
                span.set("provably_empty", True)
                span.set("rows", len(values))
                metrics.counter("query.analysis_short_circuit").inc()
                counters = {"rows_scanned": 0, "rows_emitted": len(values),
                            "index_probes": 0, "operators": []}
                if not instrument:
                    return QueryResult(columns, values, cache_outcome=missed,
                                       counters=counters)
                # The report still renders the analysis trailer naming
                # the contradicted predicates.
                stats = OperatorStats("AnalysisEmpty(provably empty WHERE)")
                stats.rows_out = len(values)
                stats.loops = 1
                return AnalyzeReport(
                    plan_text="",
                    operators=stats,
                    rows=len(values),
                    wall_s=timer.elapsed_s,
                    virtual_s=0.0,
                    estimated_rows=0.0,
                    estimated_cost=0.0,
                    cache_outcome=missed,
                    counters=counters,
                    analysis=analysis.summary_lines(),
                    execution={"mode": self.config.execution_mode},
                )

            version = self.drugtree.data_version
            hit = self.cache.lookup(query, version) if caching else None
            if hit is not None and not instrument:
                span.set("cache", hit.kind)
                span.set("rows", len(hit.values))
                return QueryResult(hit.columns, hit.values,
                                   cache_outcome=hit.kind)

            resilient = (self.federation is not None
                         and self.federation.degrades(deadline))
            deadline = self._as_deadline(deadline)
            statuses: dict[str, str] = {}
            counters = ExecCounters()
            root = OperatorStats("plan") if instrument else None
            clock = getattr(tracer, "clock", None) if instrument else None
            with tracer.span("query.resolve_filters"):
                ligand_keys, candidates, sub_candidates = \
                    self._resolve_ligand_filters(query)
            with tracer.span("query.plan"):
                plan = self.planner.plan(query,
                                         similar_keys=ligand_keys)
            physical, choice = self._build_physical(
                plan.logical, counters, root, clock, deadline,
                statuses if resilient else None)
            if instrument:
                before = metrics.counter_values("source.roundtrips.")
                scheduler_before = metrics.counter_values("scheduler.")
                virtual_before = (clock.now() if clock is not None
                                  else 0.0)
            with tracer.span("query.run") as run_span, \
                    WallTimer() as timer:
                columns, values = _drain(physical, choice.mode)
                run_span.set("rows", len(values))
                run_span.set("rows_scanned", counters.rows_scanned)

            span.set("rows", len(values))
            degraded = any(status != STATUS_FRESH
                           for status in statuses.values())
            if not instrument:
                # A degraded answer is *not* cached: the cache must
                # never upgrade a partial result to a future "fresh"
                # hit.
                if caching and not degraded:
                    self.cache.store(query, columns, values, version)
                if degraded:
                    span.set("degraded", True)
                    metrics.counter("query.degraded_results").inc()
                span.set("cache", missed)
                metrics.counter("query.rows_scanned").inc(
                    counters.rows_scanned
                )
                return QueryResult(
                    columns, values,
                    plan=plan,
                    cache_outcome=missed,
                    counters=counters.snapshot(),
                    similarity_candidates=candidates,
                    substructure_candidates=sub_candidates,
                    resilience=dict(statuses),
                    degraded=degraded,
                )

            virtual_s = (clock.now() - virtual_before
                         if clock is not None else 0.0)
            after = metrics.counter_values("source.roundtrips.")
            scheduler_after = metrics.counter_values("scheduler.")
            federation = {
                name: round(total - scheduler_before.get(name, 0), 6)
                for name, total in scheduler_after.items()
                if total - scheduler_before.get(name, 0)
            }
            prefix = "source.roundtrips."
            source_roundtrips = {
                name[len(prefix):]: {
                    "during": total - before.get(name, 0),
                    "total": total,
                }
                for name, total in after.items()
            }

            resilience: dict[str, Any] = {}
            if statuses:
                resilience["statuses"] = dict(statuses)
                if degraded:
                    resilience["degraded"] = True
            if (self.federation is not None
                    and self.federation.breakers is not None):
                snap = self.federation.breakers.snapshot()
                if snap:
                    resilience["breakers"] = snap

            execution: dict[str, Any] = {"mode": choice.mode}
            if choice.reason:
                execution["reason"] = choice.reason
            if counters.batches_emitted:
                execution["batches"] = counters.batches_emitted
                execution["rows_per_batch"] = round(
                    counters.batch_rows / counters.batches_emitted, 2
                )
                execution["batch_size"] = self.config.vector_batch_size

            operators = root.children[0] if root.children else root
            self._emit_operator_spans(tracer, operators)
            return AnalyzeReport(
                plan_text=plan.explain(),
                operators=operators,
                rows=len(values),
                wall_s=timer.elapsed_s,
                virtual_s=virtual_s,
                estimated_rows=plan.estimated_rows,
                estimated_cost=plan.estimated_cost,
                cache_outcome=(
                    f"{hit.kind} (result recomputed for analysis)"
                    if hit is not None else missed),
                counters=counters.snapshot(),
                source_roundtrips=source_roundtrips,
                federation=federation,
                analysis=(analysis.summary_lines()
                          if analysis is not None else ()),
                resilience=resilience,
                execution=execution,
            )

    def explain_analyze(self, query: Query | str) -> str:
        """EXPLAIN plus actual execution numbers, as annotated text."""
        return self.analyze(query).render()

    def _emit_operator_spans(self, tracer, stats: OperatorStats,
                             parent=None) -> None:
        span = tracer.record(
            "op." + stats.label.split("(", 1)[0],
            wall_s=stats.wall_s,
            virtual_s=stats.virtual_s or None,
            parent=parent,
            rows=stats.rows_out,
            loops=stats.loops,
            label=stats.label,
        )
        for child in stats.children:
            self._emit_operator_spans(tracer, child, parent=span)

    # -- ligand-filter resolution --------------------------------------------

    def _resolve_ligand_filters(
        self, query: Query,
    ) -> tuple[frozenset[str] | None, int, int]:
        """Resolve similarity and substructure filters to one ligand-id
        key set (their intersection when both are present)."""
        similar_keys, candidates = self._resolve_similarity(query.similar)
        sub_keys, sub_candidates = self._resolve_substructure(
            query.substructure
        )
        if similar_keys is None:
            combined = sub_keys
        elif sub_keys is None:
            combined = similar_keys
        else:
            combined = similar_keys & sub_keys
        return combined, candidates, sub_candidates

    def _resolve_substructure(
        self, substructure: SubstructureFilter | None,
    ) -> tuple[frozenset[str] | None, int]:
        """Resolve a CONTAINING filter to the matching ligand-id set.

        With the screen enabled, count profiling prunes molecules before
        any exact match runs; both paths return identical sets."""
        if substructure is None:
            return None, 0
        pattern = SubstructurePattern(substructure.smiles)
        molecules = self.drugtree.molecules
        if self.config.use_substructure_screen:
            matches, screened = filter_library(pattern, molecules)
            return matches, screened
        matches = frozenset(
            ligand_id for ligand_id, mol in molecules.items()
            if pattern.matches(mol, screen=False)
        )
        return matches, len(molecules)

    def _resolve_similarity(
        self, similar: SimilarityFilter | None,
    ) -> tuple[frozenset[str] | None, int]:
        """Resolve a similarity filter to the matching ligand-id set.

        With the prefilter enabled, popcount bounds cut the candidate
        list before any Tanimoto is computed: ``T(a,b) >= t`` forces
        ``t * |a| <= |b| <= |a| / t``.
        """
        if similar is None:
            return None, 0
        probe = circular_fingerprint(parse_smiles(similar.smiles))
        threshold = similar.threshold
        if self.config.use_fingerprint_prefilter:
            # Popcount-ordered index: two binary searches bound the
            # candidate band before any Tanimoto is computed.
            index = self.drugtree.fingerprint_index
            band = index.candidate_band(probe, threshold)
            matches = frozenset(
                ligand_id for ligand_id, fp in band
                if tanimoto(probe, fp) >= threshold
            )
            return matches, len(band)
        fingerprints = self.drugtree.fingerprints
        matches = frozenset(
            ligand_id for ligand_id, fp in fingerprints.items()
            if tanimoto(probe, fp) >= threshold
        )
        return matches, len(fingerprints)

    # -- physical lowering ----------------------------------------------------------

    def _build_physical(self, node: LogicalNode, counters: ExecCounters,
                        probe: OperatorStats | None, clock,
                        deadline: Deadline | None,
                        statuses: dict[str, str] | None):
        """Lower *node* on the engine the row rule picks for it.

        Returns the operator (drained as batches or as rows, as the
        choice's mode says; identical results either way) and the
        :class:`EngineChoice`; *deadline* and *statuses* reach
        ``RemoteFetchOp`` through the lowering.
        """
        if self.config.execution_mode == "row":
            choice = EngineChoice("row")
        else:
            choice = choose_engine(node)
        lowering = (VectorizedLowering if choice.mode == "vectorized"
                    else RowLowering)
        physical = lowering(self, counters, probe, clock,
                            deadline, statuses).lower_plan(node)
        return physical, choice

    def _remote_fetch_op(self, remote: tuple[str, ...], child,
                         counters: ExecCounters,
                         deadline: Deadline | None,
                         statuses: dict[str, str] | None) -> PhysicalOp:
        if self.federation is None:
            raise QueryError(
                f"columns {sorted(remote)} live at the remote sources; "
                "construct the engine with federation=FetchScheduler(...)"
            )
        specs = tuple(
            (column,
             REMOTE_DETAIL_COLUMNS[column][0],
             REMOTE_DETAIL_COLUMNS[column][1])
            for column in remote
        )
        return RemoteFetchOp(counters, child, self.federation,
                             "protein_id", specs,
                             deadline=deadline, statuses=statuses)


class RowLowering:
    """Lower logical plans to volcano row operators (the reference the
    vectorized engine is held to, and the only form some nodes have)."""

    def __init__(self, engine: QueryEngine, counters: ExecCounters,
                 probe: OperatorStats | None = None, clock=None,
                 deadline=None, statuses=None) -> None:
        self.engine = engine
        self.counters = counters
        self.probe = probe
        self.clock = clock
        self.deadline = deadline
        self.statuses = statuses

    def lower_plan(self, node: LogicalNode) -> PhysicalOp:
        return self._to_physical(node, self.probe)

    def _to_physical(self, node: LogicalNode,
                     probe: OperatorStats | None) -> PhysicalOp:
        """Lower *node*; with *probe*, instrument it for EXPLAIN ANALYZE.

        *probe* is the parent's stats node: this operator appends its
        own stats child and comes back wrapped so execution charges
        actual rows and (wall, virtual) time to it.
        """
        if probe is None:
            return self._lower(node, None)
        stats = probe.child(node.describe(),
                            getattr(node, "estimated_rows", None))
        return InstrumentedOp(self._lower(node, stats), stats, self.clock)

    def _lower(self, node: LogicalNode,
               stats: OperatorStats | None) -> PhysicalOp:
        counters = self.counters
        if isinstance(node, LogicalCladeAggregate):
            return self._clade_fast_path(node)
        if isinstance(node, LogicalScan):
            return self._scan_op(node, stats)
        if isinstance(node, LogicalJoin):
            return self._join_op(node, stats)
        if isinstance(node, LogicalAggregate):
            child = self._to_physical(node.child, stats)
            return HashAggregateOp(counters, child, node.aggregates,
                                   node.group_by)
        if isinstance(node, LogicalHaving):
            child = self._to_physical(node.child, stats)
            return FilterOp(counters, child, node.conditions)
        if isinstance(node, LogicalProject):
            child = self._to_physical(node.child, stats)
            remote = tuple(c for c in node.columns
                           if c in REMOTE_DETAIL_COLUMNS)
            if remote:
                child = self.engine._remote_fetch_op(
                    remote, child, counters, self.deadline, self.statuses)
            return ProjectOp(counters, child, node.columns)
        if isinstance(node, LogicalOrder):
            child = self._to_physical(node.child, stats)
            if node.limit is not None:
                return TopKOp(counters, child, node.order_by, node.limit)
            return SortOp(counters, child, node.order_by)
        if isinstance(node, LogicalLimit):
            child = self._to_physical(node.child, stats)
            return LimitOp(counters, child, node.limit)
        raise PlanError(f"cannot lower {type(node).__name__}")

    def _scan_op(self, node: LogicalScan, stats=None) -> PhysicalOp:
        counters = self.counters
        table = self.engine.drugtree.tables[node.table]
        if node.access == "index_order":
            # The one scan with no row twin: both lowerings share it.
            return IndexOrderScanOp(counters, table, node, stats=stats)
        if node.access == "seq":
            return SeqScanOp(counters, table, node.residual)
        if node.access == "index_eq":
            assert node.access_column is not None
            index = table.index_on(node.access_column)
            if index is None:
                raise PlanError(
                    f"plan needs an index on {node.access_column!r}"
                )
            return IndexEqScanOp(counters, table, index, node.eq_value,
                                 node.residual)
        if node.access == "index_range":
            assert node.access_column is not None
            index = table.index_on(node.access_column, require_range=True)
            if not isinstance(index, SortedIndex):
                raise PlanError(
                    f"plan needs a sorted index on {node.access_column!r}"
                )
            return IndexRangeScanOp(
                counters, table, index,
                node.range_low, node.range_high,
                node.include_low, node.include_high,
                node.residual,
            )
        if node.access == "key_set":
            assert node.access_column is not None
            assert node.key_set is not None
            return KeySetScanOp(counters, table, node.access_column,
                                node.key_set, node.residual)
        raise PlanError(f"unknown access path {node.access!r}")

    def _join_op(self, node: LogicalJoin,
                 stats: OperatorStats | None) -> PhysicalOp:
        counters = self.counters
        left = self._to_physical(node.left, stats)
        if node.method == "hash":
            right = self._to_physical(node.right, stats)
            # Build on the smaller estimated side.
            if rows_estimate(node.left) <= rows_estimate(node.right):
                return HashJoinOp(counters, build=left, probe=right,
                                  key=node.key)
            return HashJoinOp(counters, build=right, probe=left,
                              key=node.key)
        inner_logical = node.right

        if stats is not None:
            # The inner side is re-lowered per outer row; fold every
            # rescan into one stats node (loops counts the rescans).
            inner_stats = stats.child(
                inner_logical.describe(),
                getattr(inner_logical, "estimated_rows", None),
            )
            inner_stats.merge_children = True

            def inner_factory() -> PhysicalOp:
                op = self._lower(inner_logical, inner_stats)
                return InstrumentedOp(op, inner_stats, self.clock)
        else:
            def inner_factory() -> PhysicalOp:
                return self._lower(inner_logical, None)

        return NestedLoopJoinOp(counters, left, inner_factory, node.key)

    def _clade_fast_path(self, node: LogicalCladeAggregate) -> PhysicalOp:
        stats = self.engine.drugtree.clade_stats(node.node_name)
        row: dict[str, Any] = {}
        for aggregate in node.aggregates:
            if aggregate.func == "count":
                row[aggregate.output_name] = int(stats["count"])
            elif aggregate.func == "mean":
                row[aggregate.output_name] = (
                    stats["mean"] if stats["count"] else None
                )
            elif aggregate.func == "max":
                row[aggregate.output_name] = (
                    stats["max"] if stats["count"] else None
                )
            elif aggregate.func == "sum":
                row[aggregate.output_name] = stats["mean"] * stats["count"]
            else:
                raise PlanError(
                    f"clade fast path cannot serve {aggregate}"
                )
        return StaticRowsOp(self.counters, [row])
