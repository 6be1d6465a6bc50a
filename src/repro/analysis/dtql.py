"""DTQL semantic analyzer: a typed-catalog pass between parse and plan.

Given DTQL text (or an already-built :class:`Query`), the analyzer
produces an :class:`AnalysisReport`:

* **name resolution** — unknown columns/tables become errors with
  did-you-mean suggestions and a character span pointing at the token;
* **type checking** — predicate and HAVING literals are checked against
  the catalog's column types (``DTQL101``/``102``/``104``);
* **constant folding** — duplicate ``IN`` elements are deduplicated,
  single-element ``IN`` folds to ``=``, predicates implied by a
  stronger sibling (or, of two that imply each other, the later one)
  are subsumed (``DTQL202``–``204``); the folded query on the report
  is what the engine plans;
* **range analysis** — AND-ed predicates per column are tested for
  unsatisfiability (:func:`column_contradiction`); the engine answers
  a query proven empty without planning it or making any source
  round-trip (``DTQL201``). This is the only emptiness verdict: the
  planner has none of its own;
* **cost advisories** — predicates that force an implicit join
  (``DTQL301``), selected federation-resolved columns that cost
  run-time round-trips (``DTQL302``), and an ``ORDER BY`` column the
  output drops, which sorts nothing (``DTQL303``).

Errors mean the query must not run; warnings and infos ride along into
the EXPLAIN ANALYZE ``-- analysis:`` trailer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Any

from repro.analysis.catalog import Catalog
from repro.analysis.diag import Diagnostic, Severity, Span, sort_diagnostics
from repro.core.query.ast import Comparison, Query
from repro.core.query.parser import parse_query, tokenize
from repro.errors import ParseError
from repro.storage.schema import ColumnType

_ORDERING_OPS = ("<", "<=", ">", ">=")


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyzer concluded about one query."""

    #: The parsed query, or None when parsing itself failed.
    query: Query | None
    diagnostics: tuple[Diagnostic, ...]
    #: The constant-folded query (None when parsing failed or any
    #: error-severity diagnostic makes folding meaningless).
    folded: Query | None
    #: When the WHERE clause is provably unsatisfiable: the minimal
    #: predicate set (usually a pair) whose conjunction is empty,
    #: rendered as DTQL fragments.
    contradiction: tuple[str, ...] | None

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when the query may execute (no error-severity findings)."""
        return not self.errors

    @property
    def provably_empty(self) -> bool:
        return self.contradiction is not None

    def summary_lines(self) -> tuple[str, ...]:
        """Compact lines for the EXPLAIN ANALYZE ``-- analysis:`` trailer."""
        lines: list[str] = []
        if self.contradiction is not None:
            lines.append(
                "provably empty: " + " AND ".join(self.contradiction))
        for diagnostic in self.diagnostics:
            if diagnostic.severity is Severity.ERROR:
                continue
            if diagnostic.code == "DTQL201":
                continue  # covered by the provably-empty line
            lines.append(f"{diagnostic.code}: {diagnostic.message}")
        return tuple(lines)

    def render(self) -> str:
        if not self.diagnostics:
            return "analysis: ok"
        return "\n".join(d.render() for d in self.diagnostics)

    def as_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "provably_empty": self.provably_empty,
            "contradiction": (list(self.contradiction)
                              if self.contradiction is not None else None),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }


class _SpanIndex:
    """Hands out token spans for names, consuming occurrences in order.

    Repeated references to the same column get successive source
    positions, so two diagnostics about ``value_nm`` don't both point
    at its first mention. Every pass takes an index of its own over
    the one token list of the check: what one pass consumed is still
    there for the next.
    """

    def __init__(self, tokens) -> None:
        self._tokens = tokens
        self._used: set[int] = set()

    def find(self, name: str) -> Span | None:
        wanted = name.lower()
        for i, token in enumerate(self._tokens):
            if (i not in self._used and token.kind == "word"
                    and token.text.lower() == wanted):
                self._used.add(i)
                return Span(*token.span)
        return None


def _literal_ok(expected: ColumnType, value: Any) -> bool:
    """Can *value* meaningfully compare against a column of *expected*?

    INT and FLOAT columns interchange with any non-bool number — a
    predicate ``value_nm < 7.5`` on an INT column is satisfiable and
    common.
    """
    if value is None:
        return True
    if expected is ColumnType.STRING:
        return isinstance(value, str)
    if expected is ColumnType.BOOL:
        return isinstance(value, bool)
    return (isinstance(value, (int, float))
            and not isinstance(value, bool))


class SemanticAnalyzer:
    """Runs every analysis pass over one query; stateless between calls."""

    def __init__(self) -> None:
        self.catalog = Catalog.default()

    # -- entry points ------------------------------------------------------

    def check(self, query: Query | str,
              text: str | None = None) -> AnalysisReport:
        """Analyze a query; DTQL text is parsed first.

        Spans come from the tokens a parsed query carries; *text*
        supplies them for a query built in code.
        """
        if isinstance(query, str):
            text = query
            try:
                query = parse_query(text)
            except ParseError as exc:
                diagnostic = self._parse_diagnostic(exc, text)
                return AnalysisReport(query=None, diagnostics=(diagnostic,),
                                      folded=None, contradiction=None)
        tokens = query.tokens or (tokenize(text) if text else ())
        diagnostics: list[Diagnostic] = []
        index = _SpanIndex(tokens)

        self._check_predicate_types(query, diagnostics, index)
        self._check_having_types(query, diagnostics, index)
        folded = self._fold(query, diagnostics, _SpanIndex(tokens))
        contradiction = self._find_contradiction(
            folded, diagnostics, _SpanIndex(tokens))
        self._check_implicit_joins(query, diagnostics, _SpanIndex(tokens))
        self._check_remote_columns(query, diagnostics, _SpanIndex(tokens))
        self._check_order_column(query, diagnostics, tokens)

        ordered = sort_diagnostics(diagnostics)
        has_errors = any(d.severity is Severity.ERROR for d in ordered)
        return AnalysisReport(
            query=query,
            diagnostics=ordered,
            folded=None if has_errors else folded,
            contradiction=contradiction,
        )

    # -- parse-failure classification --------------------------------------

    def _parse_diagnostic(self, exc: ParseError, text: str) -> Diagnostic:
        span = Span(*exc.span) if exc.span is not None else None
        if exc.name is None:
            return Diagnostic(exc.code or "DTQL001", Severity.ERROR,
                              str(exc), span=span)
        table = exc.code == "DTQL003"
        if span is None:
            # Raised while the Query was built, so the text did
            # tokenize; only this error path tokenizes it again.
            span = _SpanIndex(tokenize(text)).find(exc.name)
        suggestions = self.catalog.suggest(exc.name, table=table)
        hint = ("did you mean " + " or ".join(
            repr(s) for s in suggestions) + "?") if suggestions else None
        return Diagnostic(exc.code, Severity.ERROR,
                          f"unknown {'table' if table else 'column'} "
                          f"{exc.name!r}", span=span, hint=hint)

    # -- the passes --------------------------------------------------------

    def _check_predicate_types(self, query: Query,
                               diagnostics: list[Diagnostic],
                               index: _SpanIndex) -> None:
        for predicate in query.predicates:
            expected = self.catalog.column_type(predicate.column)
            if expected is None:
                continue
            span = index.find(predicate.column)
            if predicate.op == "in":
                for element in predicate.value:
                    if not _literal_ok(expected, element):
                        diagnostics.append(Diagnostic(
                            "DTQL102", Severity.ERROR,
                            f"IN element {element!r} does not match "
                            f"{predicate.column!r} "
                            f"({expected.value} column)", span=span))
                continue
            if not _literal_ok(expected, predicate.value):
                diagnostics.append(Diagnostic(
                    "DTQL101", Severity.ERROR,
                    f"literal {predicate.value!r} does not match "
                    f"{predicate.column!r} ({expected.value} column)",
                    span=span))
            elif (expected is ColumnType.BOOL
                    and predicate.op in _ORDERING_OPS):
                diagnostics.append(Diagnostic(
                    "DTQL103", Severity.WARNING,
                    f"ordering comparison {predicate.op!r} on bool "
                    f"column {predicate.column!r}", span=span))

    def _check_having_types(self, query: Query,
                            diagnostics: list[Diagnostic],
                            index: _SpanIndex) -> None:
        for condition in query.having:
            expected = self.catalog.aggregate_output_type(condition.column)
            if expected is None and condition.column == query.group_by:
                expected = self.catalog.column_type(condition.column)
            if expected is None:
                continue
            values = (condition.value if condition.op == "in"
                      else (condition.value,))
            for value in values:
                if not _literal_ok(expected, value):
                    diagnostics.append(Diagnostic(
                        "DTQL104", Severity.ERROR,
                        f"HAVING literal {value!r} does not match "
                        f"{condition.column!r} ({expected.value})",
                        span=index.find(condition.column)))

    def _fold(self, query: Query, diagnostics: list[Diagnostic],
              index: _SpanIndex) -> Query:
        """Constant-fold predicates, reporting every rewrite."""
        folded: list[Comparison] = []
        for predicate in query.predicates:
            span = index.find(predicate.column)
            if predicate in folded:
                diagnostics.append(Diagnostic(
                    "DTQL202", Severity.WARNING,
                    f"duplicate predicate {predicate}", span=span))
                continue
            if predicate.op == "in":
                unique = tuple(dict.fromkeys(predicate.value))
                if len(unique) < len(predicate.value):
                    diagnostics.append(Diagnostic(
                        "DTQL203", Severity.WARNING,
                        f"IN list for {predicate.column!r} repeats "
                        f"{len(predicate.value) - len(unique)} value(s)",
                        span=span))
                    predicate = Comparison(predicate.column, "in", unique)
                if len(unique) == 1:
                    predicate = Comparison(predicate.column, "=", unique[0])
                    diagnostics.append(Diagnostic(
                        "DTQL204", Severity.INFO,
                        f"single-element IN folded to {predicate}",
                        span=span))
            folded.append(predicate)
        # Subsumption: drop predicates implied by a strictly stronger
        # sibling (x > 3 AND x > 5 keeps only x > 5) and, of two that
        # imply each other (x IN (1, 2) AND x IN (2, 1)), the later.
        kept: list[Comparison] = []
        for position, candidate in enumerate(folded):
            stronger = next(
                (other for index, other in enumerate(folded)
                 if index != position and other.implies(candidate)
                 and (index < position or not candidate.implies(other))),
                None,
            )
            if stronger is not None:
                diagnostics.append(Diagnostic(
                    "DTQL202", Severity.WARNING,
                    f"predicate {candidate} is implied by {stronger}",
                    span=None))
                continue
            kept.append(candidate)
        if len(kept) == len(query.predicates) \
                and tuple(kept) == query.predicates:
            return query
        return replace(query, predicates=tuple(kept))

    def _find_contradiction(
        self, folded: Query, diagnostics: list[Diagnostic],
        index: _SpanIndex,
    ) -> tuple[str, ...] | None:
        by_column: dict[str, list[Comparison]] = {}
        for predicate in folded.predicates:
            by_column.setdefault(predicate.column, []).append(predicate)
        for column, group in by_column.items():
            witness: tuple[Comparison, ...] | None = None
            for first, second in combinations(group, 2):
                if column_contradiction([first, second]):
                    witness = (first, second)
                    break
            if witness is None and len(group) > 2 \
                    and column_contradiction(group):
                witness = tuple(group)
            if witness is not None:
                rendered = tuple(str(p) for p in witness)
                diagnostics.append(Diagnostic(
                    "DTQL201", Severity.WARNING,
                    "WHERE clause is provably empty: "
                    + " AND ".join(rendered)
                    + " cannot both hold",
                    span=index.find(column)))
                return rendered
        return None

    def _check_implicit_joins(self, query: Query,
                              diagnostics: list[Diagnostic],
                              index: _SpanIndex) -> None:
        without_predicates = replace(query, predicates=())
        base = set(without_predicates.tables())
        extra = set(query.tables()) - base
        if not extra:
            return
        for predicate in query.predicates:
            info = self.catalog.get(predicate.column)
            if info is None or len(info.tables) != 1:
                continue
            owner = info.tables[0]
            if owner in extra:
                diagnostics.append(Diagnostic(
                    "DTQL301", Severity.INFO,
                    f"predicate on {predicate.column!r} joins in table "
                    f"{owner!r} not named in FROM",
                    span=index.find(predicate.column)))
                extra.discard(owner)

    def _check_remote_columns(self, query: Query,
                              diagnostics: list[Diagnostic],
                              index: _SpanIndex) -> None:
        for column in query.remote_columns():
            diagnostics.append(Diagnostic(
                "DTQL302", Severity.WARNING,
                f"column {column!r} is federation-resolved: selecting it "
                "costs run-time source round-trips per row batch",
                span=index.find(column)))

    def _check_order_column(self, query: Query,
                            diagnostics: list[Diagnostic],
                            tokens) -> None:
        """The sort runs above the projection: a sort column the output
        drops reads NULL in every row, so nothing gets ordered."""
        if query.order_by is None:
            return
        column = query.order_by.column
        outputs = set(query.select) | {
            aggregate.output_name for aggregate in query.aggregates}
        if (not outputs  # SELECT * keeps every column
                or column in outputs or column == query.group_by):
            return
        diagnostics.append(Diagnostic(
            "DTQL303", Severity.WARNING,
            f"ORDER BY column {column!r} is not in the output: every "
            "sort key reads NULL and rows come back in scan order",
            # ORDER BY's mention of the column is the last in the text.
            span=_SpanIndex(tokens[::-1]).find(column),
            hint="add it to SELECT"))


def column_contradiction(predicates: list[Comparison]) -> bool:
    """True if AND-ing *predicates* (all on one column) is unsatisfiable.

    Conservative: incomparable literals never prove anything.
    """
    equalities = [p.value for p in predicates if p.op == "="]
    if len(set(map(repr, equalities))) > 1:
        return True
    in_sets = [set(p.value) for p in predicates if p.op == "in"]
    if in_sets:
        common = set.intersection(*in_sets)
        if not common:
            return True
        if equalities and equalities[0] not in common:
            return True
    lower: tuple[float, bool] | None = None  # (bound, inclusive)
    upper: tuple[float, bool] | None = None
    for predicate in predicates:
        value = predicate.value
        if predicate.op in (">", ">="):
            inclusive = predicate.op == ">="
            if lower is None or (value, not inclusive) > (lower[0],
                                                          not lower[1]):
                lower = (value, inclusive)
        elif predicate.op in ("<", "<="):
            inclusive = predicate.op == "<="
            if upper is None or (value, inclusive) < (upper[0], upper[1]):
                upper = (value, inclusive)
    if lower is not None and upper is not None:
        try:
            if lower[0] > upper[0]:
                return True
            if lower[0] == upper[0] and not (lower[1] and upper[1]):
                return True
        except TypeError:
            return False
    if equalities:
        for predicate in predicates:
            if predicate.op in _ORDERING_OPS:
                try:
                    if not predicate.matches(equalities[0]):
                        return True
                except TypeError:
                    return False
            if predicate.op == "!=" and predicate.value == equalities[0]:
                return True
    return False


def empty_result_rows(query: Query) -> list[dict[str, Any]]:
    """Correct result rows for a query whose WHERE is provably empty.

    Plain selects and grouped aggregates yield no rows; *scalar*
    aggregates still yield their one summary row (``count`` of nothing
    is 0, every other aggregate of nothing is NULL) with HAVING applied
    to it — matching what a full scan of zero matching rows produces.
    """
    if not query.aggregates or query.group_by is not None:
        return []
    row: dict[str, Any] = {}
    for aggregate in query.aggregates:
        row[aggregate.output_name] = 0 if aggregate.func == "count" else None
    for condition in query.having:
        if not condition.matches(row.get(condition.column)):
            return []
    return [row]
