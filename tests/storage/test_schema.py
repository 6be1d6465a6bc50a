"""Tests for schemas and column typing."""

from unittest import mock

import numpy
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.storage import (
    Column,
    ColumnType,
    Schema,
    bool_column,
    float_column,
    int_column,
    string_column,
)
from tests.storage.oracles import validate_row_loop, with_planted_bug


@pytest.fixture
def schema():
    return Schema([
        string_column("protein_id"),
        float_column("affinity", nullable=True),
        int_column("assay_count"),
        bool_column("potent"),
    ])


class TestColumnType:
    def test_string_accepts(self):
        assert ColumnType.STRING.accepts("x")
        assert not ColumnType.STRING.accepts(3)

    def test_int_rejects_bool(self):
        assert ColumnType.INT.accepts(3)
        assert not ColumnType.INT.accepts(True)

    def test_float_accepts_int(self):
        assert ColumnType.FLOAT.accepts(3)
        assert ColumnType.FLOAT.accepts(3.5)
        assert not ColumnType.FLOAT.accepts(True)

    def test_float_coerces_int(self):
        value = ColumnType.FLOAT.coerce(3)
        assert isinstance(value, float)

    def test_none_accepted_by_all(self):
        for column_type in ColumnType:
            assert column_type.accepts(None)


class TestSchema:
    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([string_column("a"), int_column("a")])

    def test_rejects_bad_name(self):
        with pytest.raises(SchemaError):
            Column("has space", ColumnType.STRING)

    @pytest.mark.parametrize("nullable", [False, True])
    @pytest.mark.parametrize("value", [float("nan"), numpy.float64("nan")])
    def test_a_float_column_refuses_nan(self, value, nullable):
        # An exact float takes the fast path, a numpy one Column.check.
        schema = Schema([string_column("s"), float_column("f", nullable),
                         float_column("g")])
        with pytest.raises(SchemaError, match="column 'f' refuses NaN"):
            schema.validate_row({"s": "x", "f": value, "g": 1.0})
        with pytest.raises(SchemaError, match="column 'f' refuses NaN"):
            schema.column("f").check(value)
        assert schema.validate_row({"s": "x", "f": float("inf"),
                                    "g": 1.0}) == ("x", float("inf"), 1.0)

    def test_index_of(self, schema):
        assert schema.index_of("affinity") == 1
        with pytest.raises(SchemaError, match="unknown column"):
            schema.index_of("zz")

    def test_column_names(self, schema):
        assert schema.column_names == (
            "protein_id", "affinity", "assay_count", "potent",
        )

    def test_project(self, schema):
        projected = schema.project(["potent", "protein_id"])
        assert projected.column_names == ("potent", "protein_id")


class TestValidateRow:
    def test_valid_row_ordered(self, schema):
        row = schema.validate_row({
            "protein_id": "P1", "affinity": 7.5,
            "assay_count": 3, "potent": True,
        })
        assert row == ("P1", 7.5, 3, True)

    def test_nullable_column_defaults_none(self, schema):
        row = schema.validate_row({
            "protein_id": "P1", "assay_count": 0, "potent": False,
        })
        assert row[1] is None

    def test_missing_required_column(self, schema):
        with pytest.raises(SchemaError, match="not nullable"):
            schema.validate_row({"affinity": 1.0, "assay_count": 1,
                                 "potent": True})

    def test_unknown_column(self, schema):
        with pytest.raises(SchemaError, match="unknown columns"):
            schema.validate_row({
                "protein_id": "P1", "assay_count": 1, "potent": True,
                "extra": 5,
            })

    def test_type_mismatch(self, schema):
        with pytest.raises(SchemaError, match="expects int"):
            schema.validate_row({
                "protein_id": "P1", "assay_count": "three", "potent": True,
            })

    def test_int_coerced_in_float_column(self, schema):
        row = schema.validate_row({
            "protein_id": "P1", "affinity": 7,
            "assay_count": 1, "potent": True,
        })
        assert isinstance(row[1], float)

    def test_row_as_dict_roundtrip(self, schema):
        values = {"protein_id": "P1", "affinity": 7.5,
                  "assay_count": 3, "potent": True}
        assert schema.row_as_dict(schema.validate_row(values)) == values


class Label(str):
    """A ``str`` subclass: accepted by STRING through ``isinstance``."""


#: Values of every kind a column meets: exact types, None, bools and
#: ints where numbers go, numpy scalars, a ``str`` subclass, and junk.
VALUES = st.sampled_from([
    None, True, False, 0, 7, -3, 2 ** 70, 1.5, -0.0, float("inf"),
    numpy.float64(2.5), numpy.int64(3), numpy.bool_(True), "s", "",
    Label("sub"), b"bytes", [1],
])
SCHEMAS = st.lists(st.tuples(st.sampled_from(list(ColumnType)),
                             st.booleans()),
                   min_size=1, max_size=5).map(lambda specs: Schema([
                       Column(f"c{i}", kind, nullable)
                       for i, (kind, nullable) in enumerate(specs)]))


@st.composite
def schemas_and_values(draw):
    """A schema and a values dict that may miss any column (so it reads
    as None) and may carry an unknown key."""
    schema = draw(SCHEMAS)
    present = draw(st.lists(st.sampled_from(schema.column_names),
                            unique=True))
    if draw(st.integers(0, 4)) == 0:
        present.append("unknown")  # now and then an unknown key
    return schema, {name: draw(VALUES) for name in present}


def outcome(validate, schema, values):
    try:
        row = validate(schema, values)
    except SchemaError as exc:
        return "raises", str(exc)
    return row, tuple(type(value) for value in row)


def validator_property(**overrides):
    options = {"max_examples": 300, "deadline": None, "derandomize": True,
               "database": None}
    options.update(overrides)

    @settings(**options)
    @given(schemas_and_values())
    def prop(case):
        schema, values = case
        assert outcome(Schema.validate_row, schema, values) \
            == outcome(validate_row_loop, schema, values), values

    return prop


class TestValidatorMatchesTheLoop:
    """``validate_row`` takes a value of its column's exact type as is
    and checks everything else; it returns the tuple the per-column
    ``accepts``/``coerce`` loop returned, element types included (an int
    in a FLOAT column stays a float), or raises the same message."""

    def test_the_validator_matches_the_loop(self):
        validator_property()()

    @pytest.mark.parametrize("kind, value, expected", [
        (ColumnType.FLOAT, 3, 3.0),
        (ColumnType.FLOAT, numpy.float64(2.5), numpy.float64(2.5)),
        (ColumnType.STRING, Label("x"), Label("x")),
    ])
    def test_values_not_of_the_exact_type_are_checked(self, kind, value,
                                                      expected):
        schema = Schema([Column("c", kind)])
        (row,) = schema.validate_row({"c": value})
        assert row == expected and type(row) is type(expected)

    @pytest.mark.parametrize("kind, value", [
        (ColumnType.INT, True), (ColumnType.FLOAT, False),
        (ColumnType.INT, numpy.int64(3)), (ColumnType.INT, 1.0),
    ])
    def test_a_wrong_type_raises_the_loop_s_message(self, kind, value):
        schema = Schema([Column("c", kind)])
        with pytest.raises(SchemaError) as raised:
            schema.validate_row({"c": value})
        assert str(raised.value) == outcome(
            validate_row_loop, schema, {"c": value})[1]

    def test_a_validator_taking_bool_as_int_fails_the_property(self):
        by_isinstance = with_planted_bug(Schema.validate_row, (
            "type(value := get(name)) is exact",
            "isinstance(value := get(name), exact)"))
        with mock.patch.object(Schema, "validate_row", by_isinstance), \
                pytest.raises(AssertionError):
            validator_property(phases=[Phase.generate])()
