"""DTQL: the small text query language of the DrugTree system.

Grammar (keywords case-insensitive, strings single-quoted)::

    query  := SELECT items [FROM tables] [WHERE pred (AND pred)*]
              [IN SUBTREE 'node'] [SIMILAR TO 'smiles' >= number]
          [CONTAINING 'smiles-fragment']
              [GROUP BY column] [HAVING hcond (AND hcond)*]
              [ORDER BY column [ASC|DESC]] [LIMIT n]
    items  := '*' | item (',' item)*
    item   := column | func '(' (column | '*') ')'
    pred   := column op literal
            | column IN '(' literal (',' literal)* ')'
            | column BETWEEN literal AND literal
    op     := = | != | < | <= | > | >=

Examples::

    SELECT * FROM bindings WHERE p_affinity >= 7.0 IN SUBTREE 'clade_12'
    SELECT organism, count(*) FROM bindings, proteins
        WHERE potent = true GROUP BY organism
    SELECT ligand_id, p_affinity ORDER BY p_affinity DESC LIMIT 10

Parse errors carry a character ``span`` — ``(offset, length)`` into the
query text — so diagnostics (``repro check``, the mobile server's
rejection payloads) can point at the offending token.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Any, NamedTuple

from repro.core.query.ast import (
    AggregateSpec,
    Comparison,
    HavingCondition,
    OrderBy,
    Query,
    SimilarityFilter,
    SubstructureFilter,
    SubtreeFilter,
)
from repro.errors import ParseError, QueryError

_KNOWN_TABLES = ("bindings", "proteins", "ligands")

_STRING = r"'(?:[^']|'')*'"
_NUMBER = r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_WORD = r"[A-Za-z_][A-Za-z0-9_]*"

_TOKEN_RE = re.compile(
    rf"""
    (?P<string>{_STRING})
  | (?P<number>{_NUMBER})
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<punct>[(),*])
  | (?P<word>{_WORD})
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)
#: The tokenizer's literals where a token may start: a digit after a
#: word character is inside a word (``clade_0012``) or a number, and
#: no other token holds a ``-``. The first lookahead only skips fast.
_LITERAL_RE = re.compile(
    rf"(?=['\d-])(?:(?P<string>{_STRING})"
    rf"|(?P<number>(?:(?=-)|(?<![A-Za-z0-9_])){_NUMBER}))")
#: Per literal kind, what stands for it in a shape key: a NUL, which
#: no DTQL token outside a string holds.
_MARKERS = {"string": "\0s", "number": "\0n"}


class Token(NamedTuple):
    """One DTQL token with its position in the source text."""

    kind: str
    text: str
    offset: int

    @property
    def span(self) -> tuple[int, int]:
        return (self.offset, len(self.text))


def tokenize(text: str) -> list[Token]:
    """Split DTQL *text* into :class:`Token` objects (whitespace dropped)."""
    tokens: list[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {text[position]!r} at "
                f"offset {position}",
                span=(position, 1),
            )
        start = position
        position = match.end()
        kind = match.lastgroup
        assert kind is not None
        if kind == "ws":
            continue
        tokens.append(Token(kind, match.group(), start))
    return tokens


def _literal_value(kind: str, text: str) -> Any:
    """The value of a ``string`` or ``number`` token's *text*."""
    if kind == "string":
        return text[1:-1].replace("''", "'")
    value = float(text)
    return int(value) if value.is_integer() and "." not in text \
        and "e" not in text.lower() else value


def split_literals(text: str) -> tuple[str, list[Any]]:
    """*text*'s shape key (each string and number literal replaced by
    a marker of its kind; TRUE and FALSE are words) and the literals'
    values, in text order."""
    literals: list[Any] = []

    def mark(match: re.Match) -> str:
        kind = match.lastgroup
        literals.append(_literal_value(kind, match.group()))
        return _MARKERS[kind]

    return _LITERAL_RE.sub(mark, text), literals


def rebind(template: Query, literals: list[Any]) -> Query:
    """The query of a text of *template*'s shape, from its literals,
    which come in slot order: predicates (``IN`` elements and both
    ``BETWEEN`` ends included), ``IN SUBTREE``, ``SIMILAR TO``,
    ``CONTAINING``, ``HAVING``, ``LIMIT``. Each node is built by its
    constructor, so its checks run; a literal the shape cannot take
    raises :class:`QueryError`."""
    values = iter(literals)

    def take(old: Any) -> Any:
        if isinstance(old, bool):  # a TRUE/FALSE word: part of the shape
            return old
        value = next(values, None)  # no literal is None
        if value is None:
            raise QueryError("fewer literals than the shape has slots")
        return value

    predicates = tuple(
        Comparison(p.column, p.op, tuple(map(take, p.value))
                   if p.op == "in" else take(p.value))
        for p in template.predicates)
    subtree, similar, substructure = (
        template.subtree, template.similar, template.substructure)
    subtree = subtree and SubtreeFilter(take(subtree.node_name))
    similar = similar and SimilarityFilter(
        take(similar.smiles), float(take(similar.threshold)))
    substructure = substructure and SubstructureFilter(
        take(substructure.smiles))
    having = tuple(HavingCondition(c.column, c.op, take(c.value))
                   for c in template.having)
    limit = template.limit and take(template.limit)
    if limit is not None and not isinstance(limit, int):
        raise QueryError("LIMIT must be an integer")  # as in the parser
    if next(values, None) is not None:
        raise QueryError("more literals than the shape has slots")
    return replace(template, predicates=predicates, subtree=subtree,
                   similar=similar, substructure=substructure,
                   having=having, limit=limit, tokens=())


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.position = 0

    # -- token helpers -----------------------------------------------------

    def _end_span(self) -> tuple[int, int]:
        """Zero-width span just past the last token (for EOF errors)."""
        if self.tokens:
            last = self.tokens[-1]
            return (last.offset + len(last.text), 0)
        return (len(self.text), 0)

    def _peek(self) -> Token | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _peek_is(self, kind: str, text: str) -> bool:
        token = self._peek()
        return (token is not None and token.kind == kind
                and token.text == text)

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of query",
                             span=self._end_span())
        self.position += 1
        return token

    def _keyword(self, *words: str) -> bool:
        """Consume the keyword sequence if present."""
        saved = self.position
        for word in words:
            token = self._peek()
            if token is None or token.kind != "word" \
                    or token.text.upper() != word:
                self.position = saved
                return False
            self.position += 1
        return True

    def _here(self) -> tuple[int, int]:
        token = self._peek()
        return token.span if token is not None else self._end_span()

    def _expect_keyword(self, word: str) -> None:
        if not self._keyword(word):
            raise ParseError(f"expected keyword {word}", span=self._here())

    def _expect_punct(self, symbol: str) -> None:
        token = self._next()
        if (token.kind, token.text) != ("punct", symbol):
            raise ParseError(f"expected {symbol!r}, got {token.text!r}",
                             span=token.span)

    def _identifier(self) -> str:
        token = self._next()
        if token.kind != "word":
            raise ParseError(f"expected identifier, got {token.text!r}",
                             span=token.span)
        return token.text

    def _literal(self) -> Any:
        token = self._next()
        kind, text = token.kind, token.text
        if kind in _MARKERS:
            return _literal_value(kind, text)
        if kind == "word" and text.upper() in ("TRUE", "FALSE"):
            return text.upper() == "TRUE"
        raise ParseError(f"expected literal, got {text!r}", span=token.span)

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Query:
        self._expect_keyword("SELECT")
        select, aggregates = self._select_items()
        from_tables: list[str] = []
        if self._keyword("FROM"):
            from_tables = self._table_list()
        predicates: list[Comparison] = []
        if self._keyword("WHERE"):
            predicates.extend(self._predicate())
            while self._keyword("AND"):
                predicates.extend(self._predicate())
        subtree = None
        if self._keyword("IN", "SUBTREE"):
            subtree = SubtreeFilter(self._string())
        similar = None
        if self._keyword("SIMILAR", "TO"):
            smiles = self._string()
            token = self._next()
            if (token.kind, token.text) != ("op", ">="):
                raise ParseError("SIMILAR TO needs '>= threshold'",
                                 span=token.span)
            threshold_span = self._here()
            threshold = self._literal()
            if type(threshold) not in (int, float):  # a bool is no number
                raise ParseError("similarity threshold must be a number",
                                 span=threshold_span, code="DTQL004")
            try:
                similar = SimilarityFilter(smiles, float(threshold))
            except QueryError as exc:
                raise ParseError(str(exc), span=threshold_span,
                                 code=exc.code) from None
        substructure = None
        if self._keyword("CONTAINING"):
            substructure = SubstructureFilter(self._string())
        group_by = None
        if self._keyword("GROUP", "BY"):
            group_by = self._identifier()
        having: list[HavingCondition] = []
        if self._keyword("HAVING"):
            having.append(self._having_condition())
            while self._keyword("AND"):
                having.append(self._having_condition())
        order_by = None
        if self._keyword("ORDER", "BY"):
            column = self._identifier()
            descending = False
            if self._keyword("DESC"):
                descending = True
            else:
                self._keyword("ASC")
            order_by = OrderBy(column, descending)
        limit = None
        if self._keyword("LIMIT"):
            limit_span = self._here()
            value = self._literal()
            if type(value) is not int:  # a bool is no integer
                raise ParseError("LIMIT must be an integer",
                                 span=limit_span)
            limit = value
        trailing = self._peek()
        if trailing is not None:
            raise ParseError(
                f"trailing tokens starting at {trailing.text!r}",
                span=trailing.span,
            )
        return Query(
            select=tuple(select),
            aggregates=tuple(aggregates),
            predicates=tuple(predicates),
            subtree=subtree,
            similar=similar,
            substructure=substructure,
            group_by=group_by,
            having=tuple(having),
            order_by=order_by,
            limit=limit,
            from_tables=tuple(from_tables),
            tokens=tuple(self.tokens),
        )

    def _select_items(self) -> tuple[list[str], list[AggregateSpec]]:
        select: list[str] = []
        aggregates: list[AggregateSpec] = []
        if self._peek_is("punct", "*"):
            self._next()
            return select, aggregates
        while True:
            name = self._identifier()
            if self._peek_is("punct", "("):
                self._next()
                if self._peek_is("punct", "*"):
                    self._next()
                    column = "*"
                else:
                    column = self._identifier()
                self._expect_punct(")")
                aggregates.append(AggregateSpec(name.lower(), column))
            else:
                select.append(name)
            if self._peek_is("punct", ","):
                self._next()
                continue
            break
        return select, aggregates

    def _table_list(self) -> list[str]:
        tables = [self._table_name()]
        while self._peek_is("punct", ","):
            self._next()
            tables.append(self._table_name())
        return tables

    def _table_name(self) -> str:
        span = self._here()
        name = self._identifier().lower()
        if name not in _KNOWN_TABLES:
            raise ParseError(
                f"unknown table {name!r} (known: {_KNOWN_TABLES})",
                span=span, code="DTQL003", name=name,
            )
        return name

    def _predicate(self) -> list[Comparison]:
        column = self._identifier()
        if self._keyword("IN"):
            self._expect_punct("(")
            values = [self._literal()]
            while self._peek_is("punct", ","):
                self._next()
                values.append(self._literal())
            self._expect_punct(")")
            return [Comparison(column, "in", tuple(values))]
        if self._keyword("BETWEEN"):
            low = self._literal()
            self._expect_keyword("AND")
            high = self._literal()
            return [Comparison(column, ">=", low),
                    Comparison(column, "<=", high)]
        token = self._next()
        if token.kind != "op":
            raise ParseError(
                f"expected comparison operator, got {token.text!r}",
                span=token.span,
            )
        return [Comparison(column, token.text, self._literal())]

    def _having_condition(self) -> HavingCondition:
        column = self._identifier()
        token = self._next()
        if token.kind != "op":
            raise ParseError(
                f"expected comparison operator, got {token.text!r}",
                span=token.span,
            )
        return HavingCondition(column, token.text, self._literal())

    def _string(self) -> str:
        token = self._next()
        if token.kind != "string":
            raise ParseError(f"expected quoted string, got {token.text!r}",
                             span=token.span)
        return _literal_value("string", token.text)


def parse_query(text: str) -> Query:
    """Parse DTQL *text* into a :class:`Query`.

    Raised :class:`ParseError` objects keep the ``span``, ``code``,
    ``name`` and ``stored_only`` of the inner failure even though the
    message is rewrapped, so callers can still point at the offending
    token and say what went wrong. Spans index into *text* exactly as
    given (tokenization skips whitespace in place).
    """
    if not text or not text.strip():
        raise ParseError("empty query text")
    try:
        return _Parser(text).parse()
    except QueryError as exc:
        # Covers ParseError plus AST validation errors (bad columns,
        # aggregates, thresholds) surfaced while building the Query.
        raise ParseError(f"bad query {text!r}: {exc}", span=exc.span,
                         code=exc.code, name=exc.name,
                         stored_only=exc.stored_only) from None
