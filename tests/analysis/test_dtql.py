"""Tests for the DTQL semantic analyzer."""

import pytest

from repro.analysis import SemanticAnalyzer, Severity, empty_result_rows
from repro.core.query.ast import Comparison, Query
from repro.core.query.parser import parse_query


@pytest.fixture(scope="module")
def analyzer():
    return SemanticAnalyzer()


def codes(report):
    return [d.code for d in report.diagnostics]


class TestNameResolution:
    def test_unknown_column_suggests(self, analyzer):
        report = analyzer.check("SELECT ffamily FROM proteins")
        assert not report.ok
        assert codes(report) == ["DTQL002"]
        diagnostic = report.diagnostics[0]
        assert "family" in (diagnostic.hint or "")
        # The span points exactly at the misspelt token.
        assert diagnostic.span is not None
        text = "SELECT ffamily FROM proteins"
        start = diagnostic.span.offset
        assert text[start:start + diagnostic.span.length] == "ffamily"

    def test_unknown_table_suggests(self, analyzer):
        report = analyzer.check("SELECT * FROM protein")
        assert codes(report) == ["DTQL003"]
        assert "proteins" in (report.diagnostics[0].hint or "")

    def test_unknown_order_by_column(self, analyzer):
        report = analyzer.check(
            "SELECT ligand_id ORDER BY molecular_wait")
        assert codes(report) == ["DTQL002"]
        assert "molecular_weight" in (report.diagnostics[0].hint or "")

    def test_plain_syntax_error_is_dtql001(self, analyzer):
        report = analyzer.check("SELECT * WHERE value_nm <")
        assert codes(report) == ["DTQL001"]
        assert report.diagnostics[0].severity is Severity.ERROR

    def test_clean_query(self, analyzer):
        report = analyzer.check(
            "SELECT * FROM bindings WHERE p_affinity >= 7.0")
        assert report.ok
        assert report.diagnostics == ()
        assert report.render() == "analysis: ok"


class TestTypeChecking:
    def test_numeric_column_vs_string_literal(self, analyzer):
        report = analyzer.check("SELECT * WHERE value_nm = 'low'")
        assert "DTQL101" in codes(report)
        assert not report.ok

    def test_string_column_vs_number(self, analyzer):
        report = analyzer.check("SELECT * WHERE organism = 5")
        assert "DTQL101" in codes(report)

    def test_int_column_accepts_float_literal(self, analyzer):
        report = analyzer.check("SELECT * WHERE leaf_pre < 7.5")
        assert "DTQL101" not in codes(report)

    def test_in_element_mismatch(self, analyzer):
        report = analyzer.check(
            "SELECT * WHERE organism IN ('human', 5)")
        assert "DTQL102" in codes(report)

    def test_ordering_comparison_on_bool_warns(self, analyzer):
        report = analyzer.check("SELECT * WHERE potent > false")
        assert "DTQL103" in codes(report)
        assert report.ok  # a warning, not an error

    def test_bool_column_vs_string(self, analyzer):
        report = analyzer.check("SELECT * WHERE potent = 'yes'")
        assert "DTQL101" in codes(report)

    def test_having_literal_mismatch(self, analyzer):
        report = analyzer.check(
            "SELECT organism, count(*) FROM bindings, proteins "
            "GROUP BY organism HAVING organism = 5")
        assert "DTQL104" in codes(report)

    def test_having_aggregate_output_type(self, analyzer):
        report = analyzer.check(
            "SELECT organism, mean(p_affinity) FROM bindings, proteins "
            "GROUP BY organism HAVING mean_p_affinity = 'high'")
        assert "DTQL104" in codes(report)

    def test_having_count_accepts_numbers(self, analyzer):
        report = analyzer.check(
            "SELECT organism, count(*) FROM bindings, proteins "
            "GROUP BY organism HAVING count_all >= 2")
        assert report.ok


class TestFolding:
    def test_duplicate_in_values(self, analyzer):
        report = analyzer.check(
            "SELECT * WHERE activity_type IN ('ki', 'ki', 'ic50')")
        assert "DTQL203" in codes(report)
        folded = next(p for p in report.folded.predicates
                      if p.column == "activity_type")
        assert folded.value == ("ki", "ic50")

    def test_single_element_in_folds_to_equality(self, analyzer):
        report = analyzer.check(
            "SELECT * WHERE activity_type IN ('ki')")
        assert "DTQL204" in codes(report)
        folded = next(p for p in report.folded.predicates
                      if p.column == "activity_type")
        assert folded.op == "="
        assert folded.value == "ki"

    def test_subsumed_predicate_dropped(self, analyzer):
        report = analyzer.check(
            "SELECT * WHERE value_nm > 3 AND value_nm > 5")
        assert "DTQL202" in codes(report)
        assert report.folded.predicates == (
            Comparison("value_nm", ">", 5),)

    def test_exact_duplicate_predicate(self, analyzer):
        report = analyzer.check(
            "SELECT * WHERE value_nm > 3 AND value_nm > 3")
        assert "DTQL202" in codes(report)
        assert len(report.folded.predicates) == 1

    def test_mutually_implying_predicates_keep_the_earlier(self, analyzer):
        report = analyzer.check(
            "SELECT * WHERE leaf_pre IN (1, 2) AND leaf_pre IN (2, 1)")
        assert report.folded.predicates == (
            Comparison("leaf_pre", "in", (1, 2)),)
        assert "DTQL202" in codes(report)

    def test_folded_none_when_errors(self, analyzer):
        report = analyzer.check("SELECT * WHERE organism = 5")
        assert report.folded is None


class TestRangeAnalysis:
    def test_basic_contradiction(self, analyzer):
        report = analyzer.check(
            "SELECT * FROM bindings WHERE value_nm < 10 "
            "AND value_nm > 100")
        assert report.provably_empty
        assert report.contradiction == ("value_nm < 10",
                                        "value_nm > 100")
        assert "DTQL201" in codes(report)
        assert any("provably empty" in line
                   for line in report.summary_lines())

    def test_between_inverted_bounds(self, analyzer):
        report = analyzer.check(
            "SELECT * WHERE value_nm BETWEEN 100 AND 10")
        assert report.provably_empty
        assert report.contradiction == ("value_nm >= 100",
                                        "value_nm <= 10")

    def test_equality_conflict(self, analyzer):
        report = analyzer.check(
            "SELECT * WHERE organism = 'human' AND organism = 'mouse'")
        assert report.provably_empty

    def test_equality_outside_in_set(self, analyzer):
        report = analyzer.check(
            "SELECT * WHERE activity_type = 'ki' "
            "AND activity_type IN ('ic50', 'ec50')")
        assert report.provably_empty

    def test_satisfiable_band_not_flagged(self, analyzer):
        report = analyzer.check(
            "SELECT * WHERE value_nm > 10 AND value_nm < 100")
        assert not report.provably_empty

    def test_touching_exclusive_bounds(self, analyzer):
        report = analyzer.check(
            "SELECT * WHERE value_nm < 10 AND value_nm >= 10")
        assert report.provably_empty

    @pytest.mark.parametrize("dtql, empty", [
        ("SELECT * WHERE value_nm < 10 AND value_nm > 100", True),
        ("SELECT * WHERE value_nm > 10 AND value_nm < 100", False),
        ("SELECT * WHERE p_affinity = 7 AND p_affinity != 7", True),
        ("SELECT * WHERE organism = 'a' AND organism = 'a'", False),
        ("SELECT * WHERE value_nm BETWEEN 1 AND 2", False),
        ("SELECT * WHERE value_nm BETWEEN 2 AND 1", True),
        ("SELECT * WHERE leaf_pre IN (1, 2) AND leaf_pre IN (3, 4)", True),
        # The single-element IN folds to '=' before the range pass.
        ("SELECT * WHERE organism IN ('a') AND organism != 'a'", True),
    ])
    def test_contradiction_cases(self, analyzer, dtql, empty):
        assert analyzer.check(dtql).provably_empty is empty


class TestCostAdvisories:
    def test_cross_table_predicate_implicit_join(self, analyzer):
        report = analyzer.check(
            "SELECT ligand_id, p_affinity FROM bindings "
            "WHERE organism = 'human'")
        joins = [d for d in report.diagnostics if d.code == "DTQL301"]
        assert len(joins) == 1
        assert "proteins" in joins[0].message
        assert report.ok  # info only

    def test_no_advisory_when_table_listed(self, analyzer):
        report = analyzer.check(
            "SELECT ligand_id FROM bindings, proteins "
            "WHERE organism = 'human'")
        assert "DTQL301" not in codes(report)

    def test_remote_column_warns(self, analyzer):
        report = analyzer.check("SELECT protein_id, method FROM proteins")
        remote = [d for d in report.diagnostics if d.code == "DTQL302"]
        assert len(remote) == 1
        assert "method" in remote[0].message
        assert any("DTQL302" in line for line in report.summary_lines())

    def test_each_remote_column_reported(self, analyzer):
        report = analyzer.check(
            "SELECT method, go_terms, keywords FROM proteins")
        assert codes(report).count("DTQL302") == 3


class TestDroppedSortColumn:
    """The sort runs above the projection: ORDER BY a column the output
    drops sorts NULLs. Both engines and the oracle answer that way, so
    the analyzer says it out loud instead (DTQL303)."""

    DTQL = ("SELECT ligand_id FROM bindings WHERE p_affinity >= 5 "
            "ORDER BY p_affinity DESC LIMIT 3")

    def test_warns_on_the_order_by_mention_with_a_hint(self, analyzer):
        report = analyzer.check(self.DTQL)
        assert codes(report) == ["DTQL303"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.severity is Severity.WARNING
        assert report.ok  # the query still runs
        assert diagnostic.hint == "add it to SELECT"
        # The mention after ORDER BY, not the one in WHERE.
        offset = self.DTQL.index("ORDER BY ") + len("ORDER BY ")
        assert (diagnostic.span.offset, diagnostic.span.length) \
            == (offset, len("p_affinity"))
        assert any("DTQL303" in line for line in report.summary_lines())

    @pytest.mark.parametrize("dtql", [
        "SELECT ligand_id, p_affinity FROM bindings "
        "ORDER BY p_affinity DESC LIMIT 3",
        "SELECT * FROM bindings ORDER BY p_affinity LIMIT 3",
        "SELECT organism, count(*) FROM bindings, proteins "
        "GROUP BY organism ORDER BY organism",
        "SELECT organism, mean(p_affinity) FROM bindings, proteins "
        "GROUP BY organism ORDER BY mean_p_affinity DESC",
    ])
    def test_silent_when_the_output_keeps_the_column(self, analyzer, dtql):
        assert "DTQL303" not in codes(analyzer.check(dtql))

    def test_grouped_output_that_drops_it_warns_too(self, analyzer):
        report = analyzer.check(
            "SELECT organism, count(*) FROM bindings, proteins "
            "GROUP BY organism ORDER BY p_affinity")
        assert "DTQL303" in codes(report)


class TestSemanticBuildErrors:
    """Errors are classified by the code the parser or the query model
    raised them with, never by their message (which quotes the text)."""

    def test_syntax_error_quoting_a_semantic_phrase_is_dtql001(
            self, analyzer):
        report = analyzer.check(
            "SELECT * WHERE organism = 'HAVING requires' AND")
        assert codes(report) == ["DTQL001"]

    def test_literal_quoting_an_unknown_name_is_not_one(self, analyzer):
        report = analyzer.check(
            "SELECT * WHERE organism = 'unknown column ''x''' LIMIT 0")
        assert codes(report) == ["DTQL004"]
        assert "limit must be positive" in report.diagnostics[0].message

    def test_similarity_threshold_above_one(self, analyzer):
        report = analyzer.check(
            "SELECT * SIMILAR TO 'CCO' >= 1.5")
        assert codes(report) == ["DTQL004"]
        assert "threshold" in report.diagnostics[0].message

    def test_having_on_unproduced_output(self, analyzer):
        report = analyzer.check(
            "SELECT organism, count(*) FROM bindings, proteins "
            "GROUP BY organism HAVING mean_p_affinity >= 6")
        assert codes(report) == ["DTQL004"]
        assert "mean_p_affinity" in report.diagnostics[0].message


class TestProgrammaticQueries:
    def test_ast_without_text_has_no_spans(self, analyzer):
        query = Query(predicates=(
            Comparison("value_nm", "<", 10),
            Comparison("value_nm", ">", 100),
        ))
        report = analyzer.check(query)
        assert report.provably_empty
        assert all(d.span is None for d in report.diagnostics)

    def test_report_as_dict_round_trip(self, analyzer):
        import json
        report = analyzer.check(
            "SELECT * WHERE value_nm < 1 AND value_nm > 2")
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["provably_empty"] is True
        assert payload["diagnostics"][0]["code"] == "DTQL201"


class TestSpanParity:
    """Every pass consumes occurrences of a column on its own: the
    passes share one token list, never one cursor."""

    DTQL = ("SELECT method FROM proteins WHERE value_nm > 3 "
            "AND value_nm > 3 AND value_nm > 5 AND value_nm < 1 "
            "AND value_nm = 'low'")
    #: Pinned at the commit before the passes shared their tokens.
    EXPECTED = [
        ("DTQL101", (102, 8)),  # type pass: the fifth value_nm
        ("DTQL202", None),      # subsumption carries no span
        ("DTQL302", (7, 6)),
        ("DTQL201", (34, 8)),   # range pass starts at the first again
        ("DTQL202", (51, 8)),   # fold pass: the duplicate, the second
        ("DTQL301", (34, 8)),   # join pass starts at the first again
    ]

    @staticmethod
    def located(report):
        return [(d.code, (d.span.offset, d.span.length) if d.span else None)
                for d in report.diagnostics]

    def test_one_column_across_every_pass(self, analyzer):
        assert self.located(analyzer.check(self.DTQL)) == self.EXPECTED

    def test_parsed_query_carries_its_own_spans(self, analyzer):
        assert self.located(analyzer.check(parse_query(self.DTQL))) \
            == self.EXPECTED

    def test_text_locates_a_query_built_in_code(self, analyzer):
        query = Query(predicates=(Comparison("organism", "=", 5),))
        report = analyzer.check(
            query, text="SELECT * WHERE organism = 5")
        assert self.located(report) == [("DTQL101", (15, 8)),
                                        ("DTQL301", (15, 8))]


class TestEmptyResultRows:
    def test_plain_select_is_empty(self):
        assert empty_result_rows(parse_query("SELECT * ")) == []

    def test_scalar_count_is_zero(self):
        rows = empty_result_rows(
            parse_query("SELECT count(*) FROM bindings"))
        assert rows == [{"count_all": 0}]

    def test_other_scalar_aggregates_are_null(self):
        rows = empty_result_rows(parse_query(
            "SELECT count(*), mean(p_affinity), max(value_nm) "
            "FROM bindings"))
        assert rows == [{"count_all": 0, "mean_p_affinity": None,
                         "max_value_nm": None}]

    def test_grouped_aggregates_have_no_groups(self):
        rows = empty_result_rows(parse_query(
            "SELECT organism, count(*) FROM bindings, proteins "
            "GROUP BY organism"))
        assert rows == []

    def test_having_filters_the_empty_summary(self):
        rows = empty_result_rows(parse_query(
            "SELECT count(*) FROM bindings HAVING count_all >= 1"))
        assert rows == []

    def test_having_satisfied_by_zero_count(self):
        rows = empty_result_rows(parse_query(
            "SELECT count(*) FROM bindings HAVING count_all <= 5"))
        assert rows == [{"count_all": 0}]
