"""Tests for the DTQL parser."""

import pytest

from repro.core.query.ast import (
    AggregateSpec,
    Comparison,
    OrderBy,
    Query,
    SimilarityFilter,
    SubtreeFilter,
)
from repro.core.query.parser import parse_query
from repro.errors import ParseError


class TestBasics:
    def test_select_star(self):
        query = parse_query("SELECT * FROM bindings")
        assert query.select == ()
        assert query.aggregates == ()

    def test_select_columns(self):
        query = parse_query("SELECT ligand_id, p_affinity")
        assert query.select == ("ligand_id", "p_affinity")

    def test_case_insensitive_keywords(self):
        query = parse_query("select * from bindings where potent = true")
        assert query.predicates == (Comparison("potent", "=", True),)

    def test_aggregates(self):
        query = parse_query("SELECT count(*), mean(p_affinity)")
        assert query.aggregates == (
            AggregateSpec("count", "*"),
            AggregateSpec("mean", "p_affinity"),
        )

    def test_where_conjunction(self):
        query = parse_query(
            "SELECT * WHERE p_affinity >= 7.0 AND potent = true"
        )
        assert len(query.predicates) == 2

    def test_operators(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            query = parse_query(f"SELECT * WHERE p_affinity {op} 5")
            assert query.predicates[0].op == op

    def test_in_list(self):
        query = parse_query(
            "SELECT * WHERE organism IN ('Homo sapiens', 'Mus musculus')"
        )
        assert query.predicates[0] == Comparison(
            "organism", "in", ("Homo sapiens", "Mus musculus"),
        )

    def test_number_literal_types(self):
        query = parse_query("SELECT * WHERE hbd = 2 AND logp <= 2.5")
        assert isinstance(query.predicates[0].value, int)
        assert isinstance(query.predicates[1].value, float)

    def test_between_expands_to_band(self):
        query = parse_query(
            "SELECT * WHERE p_affinity BETWEEN 6.0 AND 8.0"
        )
        assert query.predicates == (
            Comparison("p_affinity", ">=", 6.0),
            Comparison("p_affinity", "<=", 8.0),
        )

    def test_between_composes_with_and(self):
        query = parse_query(
            "SELECT * WHERE p_affinity BETWEEN 6 AND 8 "
            "AND potent = true"
        )
        assert len(query.predicates) == 3

    def test_between_missing_and(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * WHERE p_affinity BETWEEN 6 8")

    def test_string_escaping(self):
        query = parse_query("SELECT * WHERE organism = 'O''Brien'")
        assert query.predicates[0].value == "O'Brien"


class TestClauses:
    def test_subtree(self):
        query = parse_query("SELECT * IN SUBTREE 'clade_0003'")
        assert query.subtree == SubtreeFilter("clade_0003")

    def test_similar_to(self):
        query = parse_query("SELECT ligand_id SIMILAR TO 'CCO' >= 0.7")
        assert query.similar == SimilarityFilter("CCO", 0.7)

    def test_group_by(self):
        query = parse_query("SELECT organism, count(*) GROUP BY organism")
        assert query.group_by == "organism"

    def test_having(self):
        query = parse_query(
            "SELECT organism, count(*) GROUP BY organism "
            "HAVING count_all >= 5 AND organism != 'Homo sapiens'"
        )
        assert len(query.having) == 2
        assert query.having[0].column == "count_all"

    def test_having_requires_aggregates(self):
        with pytest.raises(ParseError):
            parse_query("SELECT organism HAVING count_all >= 5")

    def test_having_must_reference_outputs(self):
        with pytest.raises(ParseError, match="not an"):
            parse_query("SELECT count(*) HAVING p_affinity >= 5")

    def test_order_by_desc_and_limit(self):
        query = parse_query(
            "SELECT * ORDER BY p_affinity DESC LIMIT 10"
        )
        assert query.order_by == OrderBy("p_affinity", descending=True)
        assert query.limit == 10

    def test_order_by_default_ascending(self):
        query = parse_query("SELECT * ORDER BY p_affinity")
        assert query.order_by == OrderBy("p_affinity", descending=False)

    def test_everything_together(self):
        query = parse_query(
            "SELECT ligand_id, p_affinity FROM bindings, proteins "
            "WHERE p_affinity >= 6.5 AND potent = true "
            "IN SUBTREE 'clade_0001' "
            "ORDER BY p_affinity DESC LIMIT 5"
        )
        assert query.subtree is not None
        assert query.limit == 5
        assert len(query.predicates) == 2


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "",
        "SELECT",
        "FROM bindings",
        "SELECT * WHERE",
        "SELECT * WHERE p_affinity",
        "SELECT * WHERE p_affinity >=",
        "SELECT * FROM nonsense",
        "SELECT * LIMIT 2.5",
        "SELECT * trailing junk",
        "SELECT * IN SUBTREE clade",  # unquoted
        "SELECT * SIMILAR TO 'CCO'",  # missing threshold
        "SELECT * WHERE organism IN ()",
        "SELECT bogus_column",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_query(bad)

    def test_unknown_aggregate(self):
        with pytest.raises(Exception):
            parse_query("SELECT median(p_affinity)")

    def test_error_mentions_query(self):
        with pytest.raises(ParseError, match="bad query"):
            parse_query("SELECT !!!")

    @pytest.mark.parametrize("bad, code, name", [
        ("SELECT * WHERE p_affinity >=", None, None),
        ("SELECT ffamily", "DTQL002", "ffamily"),
        ("SELECT * ORDER BY nope", "DTQL002", "nope"),
        ("SELECT * FROM Protein", "DTQL003", "protein"),
        ("SELECT organism HAVING count_all >= 5", "DTQL004", None),
        ("SELECT * SIMILAR TO 'CCO' >= 1.5", "DTQL004", None),
        ("SELECT * SIMILAR TO 'CCO' >= 'x'", "DTQL004", None),
    ])
    def test_error_kind_survives_the_rewrap(self, bad, code, name):
        with pytest.raises(ParseError) as info:
            parse_query(bad)
        assert (info.value.code, info.value.name) == (code, name)


class TestRoundtrip:
    def test_parse_of_signature_equals_query(self):
        """A query's canonical signature re-parses to the same query."""
        original = Query(
            select=("ligand_id", "p_affinity"),
            predicates=(Comparison("p_affinity", ">=", 6.5),),
            subtree=SubtreeFilter("clade_0001"),
            order_by=OrderBy("p_affinity", descending=True),
            limit=5,
        )
        reparsed = parse_query(original.signature())
        assert reparsed.signature() == original.signature()


class TestErrorSpans:
    """Parse errors carry a (offset, length) span into the original
    text so downstream tools (``repro check``) can point at the
    offending token."""

    def test_unknown_table_span_covers_token(self):
        text = "SELECT * FROM protein"
        with pytest.raises(ParseError) as info:
            parse_query(text)
        offset, length = info.value.span
        assert text[offset:offset + length] == "protein"

    def test_unexpected_end_points_past_text(self):
        text = "SELECT * WHERE value_nm <"
        with pytest.raises(ParseError) as info:
            parse_query(text)
        assert info.value.span == (len(text), 0)

    def test_similarity_threshold_span(self):
        text = "SELECT * SIMILAR TO 'CCO' >= 1.5"
        with pytest.raises(ParseError) as info:
            parse_query(text)
        offset, length = info.value.span
        assert text[offset:offset + length] == "1.5"

    def test_span_survives_query_error_round_trip(self):
        """The span rides on QueryError as a plain tuple, so it
        survives re-wrapping without importing repro.analysis."""
        from repro.errors import QueryError

        with pytest.raises(ParseError) as info:
            parse_query("SELECT * FROM protein")
        rewrapped = QueryError(str(info.value), span=info.value.span)
        assert rewrapped.span == info.value.span == (14, 7)

    def test_errors_without_location_have_no_span(self):
        # Build-time validation errors (raised by Query itself) have
        # no token to point at; the analyzer recovers a span there.
        with pytest.raises(ParseError) as info:
            parse_query("SELECT ffamily")
        assert info.value.span is None


class TestTokenize:
    def test_tokens_carry_offsets(self):
        from repro.core.query.parser import tokenize

        text = "SELECT * FROM bindings"
        tokens = tokenize(text)
        assert [t.text for t in tokens] == ["SELECT", "*", "FROM",
                                            "bindings"]
        for token in tokens:
            offset, length = token.span
            assert text[offset:offset + length] == token.text

    def test_string_token_span_includes_quotes(self):
        from repro.core.query.parser import tokenize

        text = "SELECT * IN SUBTREE 'clade_1'"
        token = tokenize(text)[-1]
        assert token.kind == "string"
        offset, length = token.span
        assert text[offset:offset + length] == "'clade_1'"
