"""EXPLAIN ANALYZE support: per-operator actuals next to estimates.

The executor lowers a logical plan to physical operators; when analyzing
it additionally builds an :class:`OperatorStats` tree mirroring the plan
and wraps every operator in an :class:`InstrumentedOp` that measures,
per operator, emitted rows, wall seconds, and virtual seconds (time
spent inside the operator *including* its children — the inclusive
"actual time" convention of SQL EXPLAIN ANALYZE).

:class:`AnalyzeReport` then renders the annotated plan tree next to the
planner's cost estimate, the estimate-vs-actual row error, the cache
outcome, per-source round-trip counts, and the flat execution counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.timing import now_wall


@dataclass
class OperatorStats:
    """Actual execution numbers for one plan operator."""

    label: str
    estimated_rows: float | None = None
    rows_out: int = 0
    loops: int = 0
    wall_s: float = 0.0
    virtual_s: float = 0.0
    children: list["OperatorStats"] = field(default_factory=list)
    #: Index entries an ``IndexOrderScan`` touched before it stopped
    #: (its label carries the planner's ``walk ~N`` estimate).
    walked: int | None = None

    def child(self, label: str,
              estimated_rows: float | None = None) -> "OperatorStats":
        node = OperatorStats(label, estimated_rows=estimated_rows)
        self.children.append(node)
        return node

    def annotate(self) -> str:
        loops = f", loops={self.loops}" if self.loops > 1 else ""
        virtual = (f", vt={self.virtual_s:.3f} s"
                   if self.virtual_s else "")
        walked = f", walked={self.walked}" if self.walked is not None else ""
        return (f"[actual rows={self.rows_out}{walked}{loops}, "
                f"wall={self.wall_s * 1000:.3f} ms{virtual}]")

    def render(self, indent: int = 0) -> str:
        lines = [f"{'  ' * indent}{self.label}  {self.annotate()}"]
        lines.extend(node.render(indent + 1) for node in self.children)
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "estimated_rows": self.estimated_rows,
            "rows_out": self.rows_out,
            "loops": self.loops,
            "wall_s": self.wall_s,
            "virtual_s": self.virtual_s,
            "children": [node.as_dict() for node in self.children],
        }


class InstrumentedOp:
    """Wraps one physical operator, charging its stats node per row.

    Timing brackets each ``next()`` on the wrapped iterator, so a parent
    operator is charged for its children (inclusive) but *not* for
    whatever its consumer does between rows.
    """

    __slots__ = ("inner", "stats", "clock", "counters")

    def __init__(self, inner: Any, stats: OperatorStats,
                 clock: Any | None = None) -> None:
        self.inner = inner
        self.stats = stats
        self.clock = clock
        self.counters = inner.counters

    def rows(self):
        stats = self.stats
        clock = self.clock
        stats.loops += 1
        iterator = self.inner.rows()
        while True:
            wall_started = now_wall()
            virtual_started = clock.now() if clock is not None else 0.0
            try:
                row = next(iterator)
            except StopIteration:
                stats.wall_s += now_wall() - wall_started
                if clock is not None:
                    stats.virtual_s += clock.now() - virtual_started
                return
            stats.wall_s += now_wall() - wall_started
            if clock is not None:
                stats.virtual_s += clock.now() - virtual_started
            stats.rows_out += 1
            yield row

    def set_join_keys(self, keys) -> None:
        self.inner.set_join_keys(keys)


@dataclass
class AnalyzeReport:
    """Everything EXPLAIN ANALYZE learned about one execution."""

    plan_text: str
    operators: OperatorStats
    rows: int
    wall_s: float
    virtual_s: float
    estimated_rows: float
    estimated_cost: float
    cache_outcome: str
    counters: dict[str, Any] = field(default_factory=dict)
    source_roundtrips: dict[str, dict[str, float]] = field(
        default_factory=dict
    )
    #: Fetch-scheduler counter deltas during this execution (pages
    #: dispatched, coalesced requests, virtual seconds saved by
    #: overlap); empty when the query never touched the federation.
    federation: dict[str, float] = field(default_factory=dict)
    #: Semantic-analyzer findings (provably-empty proofs, remote-cost
    #: and folding advisories); empty when analysis found nothing or
    #: was disabled.
    analysis: tuple[str, ...] = ()
    #: Degradation facts of this execution: ``statuses`` (record kind →
    #: fresh/partial/missing), ``breakers`` (source/kind → state), and
    #: ``degraded``; empty on a clean run or without the resilient path.
    resilience: dict[str, Any] = field(default_factory=dict)
    #: Execution-engine facts: ``mode`` (row|vectorized: the engine that
    #: ran), ``reason`` when the row rule overrode the vectorized
    #: default, and ``batches``/``rows_per_batch``/``batch_size`` when
    #: batches flowed; empty when built by callers that predate the
    #: vectorized engine.
    execution: dict[str, Any] = field(default_factory=dict)
    #: Cluster routing facts: ``shards_contacted`` / ``shards_total`` /
    #: ``shards_pruned``, quorum geometry (``rf``/``read_quorum``), and
    #: ``read_repairs`` / ``hints_queued`` during this execution, and
    #: ``view`` (``reused``: no shard was re-read; ``absorbed``: a
    #: re-read appended ``rows_absorbed`` rows; ``built``); empty when
    #: the query ran on a single-node engine.
    cluster: dict[str, Any] = field(default_factory=dict)

    @property
    def row_estimate_error(self) -> float:
        """Estimate-vs-actual factor, >= 1 (1.0 means spot-on)."""
        estimated = max(self.estimated_rows, 1.0)
        actual = max(float(self.rows), 1.0)
        return max(estimated, actual) / min(estimated, actual)

    def render(self) -> str:
        lines = ["EXPLAIN ANALYZE"]
        if self.plan_text:
            # The planner's own header: cost, row estimate, join order.
            lines.append(self.plan_text.splitlines()[0])
        else:
            lines.append(
                f"-- estimate: cost={self.estimated_cost:.1f} "
                f"rows~{self.estimated_rows:.0f}"
            )
        lines.append(self.operators.render())
        lines.append(
            f"-- actual: {self.rows} rows in "
            f"{self.wall_s * 1000:.2f} ms wall, "
            f"{self.virtual_s:.3f} s virtual; "
            f"scanned {self.counters.get('rows_scanned', 0)}, "
            f"probes {self.counters.get('index_probes', 0)}"
        )
        lines.append(
            f"-- estimate vs actual: rows~{self.estimated_rows:.0f} "
            f"estimated, {self.rows} actual "
            f"(err {self.row_estimate_error:.2f}x)"
        )
        lines.append(f"-- cache: {self.cache_outcome}")
        if self.execution:
            parts = [f"mode={self.execution.get('mode', 'row')}"]
            if "batches" in self.execution:
                parts.append(f"batches={self.execution['batches']}")
                parts.append(
                    f"rows/batch={self.execution['rows_per_batch']:g}"
                )
                parts.append(
                    f"batch_size={self.execution['batch_size']}"
                )
            lines.append("-- execution: " + ", ".join(parts))
        if self.cluster:
            view = self.cluster.get("view")
            if view == "absorbed":
                view += f"(+{self.cluster.get('rows_absorbed', 0)})"
            lines.append(
                "-- cluster: shards contacted="
                f"{self.cluster.get('shards_contacted', 0)}"
                f"/{self.cluster.get('shards_total', 0)} "
                f"(pruned {self.cluster.get('shards_pruned', 0)}), "
                f"rf={self.cluster.get('rf', 1)} "
                f"r={self.cluster.get('read_quorum', 1)}, "
                f"repairs={self.cluster.get('read_repairs', 0)}, "
                f"hints={self.cluster.get('hints_queued', 0)}"
                + (f", view={view}" if view else "")
            )
        if self.source_roundtrips:
            parts = [
                f"{name}: +{int(delta['during'])} during execution, "
                f"{int(delta['total'])} total"
                for name, delta in sorted(self.source_roundtrips.items())
            ]
            lines.append("-- source round-trips: " + "; ".join(parts))
        else:
            lines.append("-- source round-trips: none recorded")
        if self.federation:
            parts = [
                f"{name.removeprefix('scheduler.')}="
                f"{value:g}"
                for name, value in sorted(self.federation.items())
            ]
            lines.append("-- fetch scheduler: " + ", ".join(parts))
        lines.extend(f"-- analysis: {line}" for line in self.analysis)
        if self.resilience:
            parts = []
            statuses = self.resilience.get("statuses") or {}
            if statuses:
                parts.append("statuses " + ", ".join(
                    f"{kind}={status}"
                    for kind, status in sorted(statuses.items())
                ))
            breakers = self.resilience.get("breakers") or {}
            tripped = {name: state for name, state in breakers.items()
                       if state != "closed"}
            if tripped:
                parts.append("breakers " + ", ".join(
                    f"{name}={state}"
                    for name, state in sorted(tripped.items())
                ))
            if self.resilience.get("degraded"):
                parts.append("DEGRADED")
            if parts:
                lines.append("-- resilience: " + "; ".join(parts))
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rows": self.rows,
            "wall_s": self.wall_s,
            "virtual_s": self.virtual_s,
            "estimated_rows": self.estimated_rows,
            "estimated_cost": self.estimated_cost,
            "row_estimate_error": self.row_estimate_error,
            "cache_outcome": self.cache_outcome,
            "counters": dict(self.counters),
            "source_roundtrips": {
                name: dict(delta)
                for name, delta in self.source_roundtrips.items()
            },
            "federation": dict(self.federation),
            "analysis": list(self.analysis),
            "resilience": dict(self.resilience),
            "execution": dict(self.execution),
            "cluster": dict(self.cluster),
            "operators": self.operators.as_dict(),
        }
