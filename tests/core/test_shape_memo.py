"""One full analysis per DTQL shape: the engine's shape memo.

A text the engine has not seen is split into its *shape* (the text with
each string and number literal replaced by a marker of its kind) and
its literals. The first text of a shape gets the full check; a later
text of a *clean* shape (its first text's report found nothing) is that
query rebound to the new literals, and only the literal passes (types,
fold, contradiction) run on it. Whatever path a text takes, its report
must be what a fresh ``SemanticAnalyzer().check(text)`` gives, and a
rejected text must raise what a fresh analysis raises.

The property below runs over a thousand texts of a dozen shapes through
one engine, in sequence, with literals varied across kind, sign,
exponent, ``''`` escapes, ``IN`` duplicates, reversed ``BETWEEN`` and
``LIMIT`` 0 or fractional. Three planted mutants, named below, must
each fail it.
"""

import re

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from hypothesis.errors import Flaky

from repro.analysis import dtql as dtql_module
from repro.analysis.dtql import AnalysisReport, SemanticAnalyzer
from repro.core import QueryEngine
from repro.core.query import parser as parser_module
from repro.errors import QueryError
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.workloads import DatasetConfig, build_dataset

#: ``{n}`` takes a number literal and ``{s}`` a string; ``{m}`` takes
#: mostly numbers and ``{t}`` mostly strings, so every slot sees both
#: kinds. A shape's first text decides whether it is clean: the
#: property's engine first sees each shape but the last two through
#: ``primer``, a clean text.
SHAPES = (
    "SELECT count(*) FROM bindings WHERE p_affinity > {n}",
    "SELECT ligand_id, p_affinity FROM bindings WHERE p_affinity >= {m} "
    "IN SUBTREE {t} ORDER BY p_affinity DESC LIMIT {n}",
    "SELECT count(*), mean(p_affinity), max(p_affinity) IN SUBTREE {t}",
    "SELECT * FROM bindings WHERE p_affinity BETWEEN {n} AND {n}",
    "SELECT protein_id FROM proteins WHERE organism IN ({t}, {s}, {t})",
    "SELECT protein_id, family FROM proteins WHERE organism = {t}",
    "SELECT organism, count(*) FROM bindings, proteins GROUP BY organism "
    "HAVING count_all > {m} ORDER BY count_all DESC LIMIT {n}",
    "SELECT ligand_id FROM bindings SIMILAR TO {t} >= {n}",
    "SELECT ligand_id, logp FROM ligands CONTAINING {t} LIMIT {m}",
    "SELECT count(*) FROM bindings WHERE potent = true "
    "AND value_nm IN ({n}, {n})",
    "SELECT ligand_id FROM bindings WHERE p_affinity>={n}ORDER BY "
    "ligand_id LIMIT {m}",
    # Its simplest text (5 < p_affinity < 5) is provably empty.
    "SELECT * FROM bindings WHERE p_affinity > {n} AND p_affinity < {n} "
    "AND value_nm != {m}",
    # DTQL301: the organism predicate joins in proteins (never clean).
    "SELECT ligand_id FROM bindings WHERE organism = {s}",
)

NUMBERS = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "", "-"]),
    st.sampled_from([5, 0, 1, 2, 7, 10, 12]),
    st.sampled_from(["", "", ".0", ".5", ".25"]),
    st.sampled_from(["", "", "", "e0", "e1", "e-1", "E+2"]),
)
STRINGS = st.one_of(
    st.sampled_from(["'a'", "'b_1'"]),
    st.text(alphabet="ab_ '1", max_size=4).map(
        lambda body: "'" + body.replace("'", "''") + "'"))
LITERALS = {
    "n": NUMBERS,
    "s": STRINGS,
    "m": st.one_of(NUMBERS, NUMBERS, NUMBERS, STRINGS),
    "t": st.one_of(STRINGS, STRINGS, STRINGS, NUMBERS),
}
SLOT = re.compile(r"\{([nsmt])\}")


def primer(shape):
    """A clean text of *shape*: its slots take 1, 2, ... as numbers or
    ``'p1'``, ``'p2'``, ... as strings."""
    slots = iter(range(1, 100))
    return SLOT.sub(lambda slot: (str(next(slots))
                                  if slot.group(1) in "nm"
                                  else f"'p{next(slots)}'"), shape)


@st.composite
def shape_texts(draw):
    shape = draw(st.sampled_from(SHAPES))
    return SLOT.sub(lambda slot: draw(LITERALS[slot.group(1)]), shape)


@pytest.fixture(scope="module")
def drugtree():
    return build_dataset(DatasetConfig(n_leaves=16, n_ligands=20,
                                       seed=5)).drugtree()


@pytest.fixture(autouse=True)
def fresh_metrics():
    previous = get_metrics()
    registry = MetricsRegistry()
    set_metrics(registry)
    yield registry
    set_metrics(previous)


def raised(engine, text):
    """What analyzing *text* raises: ``(class, message, diagnostics)``,
    or None when it is accepted."""
    try:
        engine._analyze_query(text)
    except QueryError as error:
        return type(error), str(error), error.diagnostics
    return None


def fresh_engine(drugtree):
    """An engine whose every text gets a fresh full check."""
    engine = QueryEngine(drugtree)
    engine._analysis = lambda text: (SemanticAnalyzer().check(text),
                                     "fresh")
    return engine


def assert_as_fresh(engine, reference, text):
    report, _ = engine._analysis(text)
    fresh = SemanticAnalyzer().check(text)
    assert report == fresh, text
    assert report.query is None or report.query.tokens == (), text
    assert raised(engine, text) == raised(reference, text), text


def memo_property(engine, reference, seen, **overrides):
    for shape in SHAPES[:-2]:
        assert_as_fresh(engine, reference, primer(shape))
    options = {"max_examples": 1200, "deadline": None,
               "derandomize": True, "database": None,
               "suppress_health_check": [HealthCheck.too_slow]}
    options.update(overrides)

    @settings(**options)
    @given(shape_texts())
    def prop(text):
        seen.append(text)
        assert_as_fresh(engine, reference, text)

    return prop


def test_every_report_equals_a_fresh_check(drugtree, fresh_metrics):
    seen, engine = [], QueryEngine(drugtree)
    memo_property(engine, fresh_engine(drugtree), seen)()
    assert len(seen) >= 1000
    shapes = {parser_module.split_literals(text)[0] for text in seen}
    assert len(shapes) >= 8
    shape_hits = fresh_metrics.counter("query.analysis.shape_hits").value
    assert shape_hits >= 300  # the lean path is exercised, not skipped
    assert sum(template is None for template in engine._shapes.values()) \
        >= 2  # and so is the full check of an unclean shape


# -- planted mutants: each must fail the property -----------------------------

def kindless_key(monkeypatch):
    """A shape key without literal kinds: a string and a number share a
    shape (``IN SUBTREE 5`` rebinds a clean ``IN SUBTREE 'x'``)."""
    monkeypatch.setattr(parser_module, "_MARKERS",
                        {"string": "\0", "number": "\0"})


def signless_split(monkeypatch):
    """A split whose numbers drop their sign into the shape key."""
    signed = parser_module._LITERAL_RE.pattern
    assert parser_module._NUMBER.startswith("-?")
    monkeypatch.setattr(parser_module, "_LITERAL_RE", re.compile(
        signed.replace(parser_module._NUMBER, parser_module._NUMBER[2:])))


def no_literal_passes(monkeypatch):
    """Rebinding that trusts the template: no literal pass runs."""
    monkeypatch.setattr(
        dtql_module.SemanticAnalyzer, "check_literals",
        lambda self, query: AnalysisReport(query, (), query, None))


@pytest.mark.parametrize("plant", [kindless_key, signless_split,
                                   no_literal_passes])
def test_planted_mutant_fails_the_property(drugtree, monkeypatch, plant):
    plant(monkeypatch)
    prop = memo_property(QueryEngine(drugtree), fresh_engine(drugtree),
                         [], phases=[Phase.generate])
    # The engine keeps state across examples: a replayed failure may
    # come back as Flaky instead.
    with pytest.raises((AssertionError, Flaky)):
        prop()


class TestSplit:
    @pytest.mark.parametrize("text, key, literals", [
        ("SELECT * IN SUBTREE 'clade_0012' LIMIT 10",
         "SELECT * IN SUBTREE \0s LIMIT \0n", ["clade_0012", 10]),
        # A number inside a word is no literal; a sign is the number's.
        ("SELECT x1 WHERE p_affinity>=-1.5e1", "SELECT x1 WHERE "
         "p_affinity>=\0n", [-15.0]),
        ("WHERE organism IN ('it''s', 2, -0)",
         "WHERE organism IN (\0s, \0n, \0n)", ["it's", 2, 0]),
        ("WHERE potent = true", "WHERE potent = true", []),
    ])
    def test_key_and_literals(self, text, key, literals):
        got_key, got = parser_module.split_literals(text)
        assert got_key == key
        assert got == literals
        assert [type(v) for v in got] == [type(v) for v in literals]

    def test_the_split_agrees_with_the_tokenizer(self):
        text = ("SELECT ligand_id FROM bindings WHERE value_nm BETWEEN "
                "-2 AND 3.5e2 AND organism = 'a''b' IN SUBTREE 'c_1'")
        literals = [token for token in parser_module.tokenize(text)
                    if token.kind in ("string", "number")]
        _, values = parser_module.split_literals(text)
        assert values == [parser_module._literal_value(t.kind, t.text)
                          for t in literals]


#: Token-like pieces glued with and without spaces: words holding
#: digits, signed numbers, strings with escapes, operators, commas.
PIECES = st.sampled_from([
    "x1", "clade_0012", "e", "E5", "_9", "1", "-2", "3.5", "1e3", "-0.5e-2",
    "'a''b'", "'1'", "''", ">=", "=", "-", "(", ",", ")", "*", " ", "  ",
])


@settings(max_examples=500, deadline=None, derandomize=True,
          database=None)
@given(st.lists(PIECES, max_size=12))
def test_the_split_finds_the_tokenizer_literals(pieces):
    text = "".join(pieces)
    try:
        tokens = parser_module.tokenize(text)
    except QueryError:
        return  # a text that does not tokenize never parses
    _, values = parser_module.split_literals(text)
    expected = [parser_module._literal_value(token.kind, token.text)
                for token in tokens if token.kind in ("string", "number")]
    assert values == expected
    assert [type(v) for v in values] == [type(v) for v in expected]


class TestRebind:
    def test_a_rebound_query_equals_its_parse(self):
        template = parser_module.parse_query(
            "SELECT count(*) FROM bindings WHERE p_affinity BETWEEN 1 AND 2"
            " AND organism IN ('a', true) IN SUBTREE 'n1' LIMIT 3")
        text = ("SELECT count(*) FROM bindings WHERE p_affinity BETWEEN 4 "
                "AND 5.5 AND organism IN ('b', true) IN SUBTREE 'n2' "
                "LIMIT 7")
        _, literals = parser_module.split_literals(text)
        assert parser_module.rebind(template, literals) \
            == parser_module.parse_query(text)

    @pytest.mark.parametrize("literals", [
        [1, 2],        # one literal short
        [1, 2, 3, 4],  # one too many
        [1, 2, 5.5],   # a fractional LIMIT does not parse
        [1, 2, 0],     # nor does LIMIT 0
    ])
    def test_a_literal_the_shape_cannot_take_raises(self, literals):
        template = parser_module.parse_query(
            "SELECT * FROM bindings WHERE p_affinity BETWEEN 1 AND 2 "
            "LIMIT 3")
        with pytest.raises(QueryError):
            parser_module.rebind(template, literals)
