"""A wide index range read as one mask over its column's typed mirror.

``VecScanOp`` resolves an ``index_range`` scan one of two ways: the
index's row ids mapped to buffer positions (``positions_of``), or, when
the band holds at least ``RANGE_MASK_SHARE`` of the table, the access
column is mirrored and both band ends are literals of its kind, one
numpy mask over the mirror. Positions ascend in row-id order (a table
only appends ids above every id it issued), so the two must name the
same positions in the same order and cost the same counters. The
property holds the mask to the index read on every band shape that
decides one — both strictness flags, open ends, crossed and empty
bands, infinities, fractional ends on the INT ``leaf_pre``, int ends on
the FLOAT ``p_affinity`` and NULL keys — with the cutoff patched to
force each regime; two planted mutants of the mask must fail it. The
directed cases pin the scans that must keep the index read, each
answering as ``NaiveEngine`` does over the overlay's rows.
"""

from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, QueryEngine
from repro.core.query import vectorized
from repro.core.query.ast import Band, Comparison, Query
from repro.core.query.logical import LogicalScan
from repro.core.query.physical import ExecCounters
from repro.core.query.vectorized import VecScanOp
from repro.storage import Schema, Table, float_column, string_column
from repro.workloads import DatasetConfig, build_dataset
from tests.core.test_index_order_scan import OverlayNaive
from tests.storage.oracles import with_planted_bug

INF = float("inf")
#: Cutoffs that force each regime: every band masks / none does.
MASK, INDEX = 0.0, INF
COUNTERS = ("rows_scanned", "rows_emitted", "index_probes",
            "batches_emitted", "operators")
#: A bound: a stored value by rank, kept, shifted off it, or truncated
#: to an int (an int end on a FLOAT column).
SHIFTS = (0, 0.5, -0.5, "int")
ends = st.one_of(st.none(), st.sampled_from((-INF, INF)),
                 st.tuples(st.integers(0, 10_000), st.sampled_from(SHIFTS)))
#: ``(table, column, low, high, include_low, include_high)``.
bands = st.tuples(
    st.sampled_from((("bindings", "leaf_pre"), ("bindings", "p_affinity"),
                     ("nullable", "resolution"))),
    ends, ends, st.booleans(), st.booleans())


@cache
def tables() -> dict[str, Table]:
    """The bindings of a small world (a sorted index on the INT
    ``leaf_pre`` and the FLOAT ``p_affinity``) and a hand-built table
    with a sorted index on a nullable FLOAT column: a third of its keys
    are NULL, some rows arrive after the index's bulk load and the
    store's backfill."""
    drugtree = build_dataset(DatasetConfig(n_leaves=24, n_ligands=40,
                                           seed=5)).drugtree()
    table = Table("nullable", Schema([
        string_column("name"), float_column("resolution", nullable=True)]))

    def add(k):
        table.insert({"name": f"n{k}",
                      "resolution": None if k % 3 == 0 else (k % 17) / 4})

    for k in range(200):
        add(k)
    table.create_index(["resolution"], kind="sorted")
    table.column_store()
    for k in range(200, 260):
        add(k)
    return {"bindings": drugtree.tables["bindings"], "nullable": table}


@cache
def stored(table_name: str, column: str) -> list:
    table = tables()[table_name]
    at = table.schema.index_of(column)
    return sorted({row[at] for _, row in table.scan()
                   if row[at] is not None})


def literal(table_name, column, end):
    if end is None or isinstance(end, float):
        return end
    rank, shift = end
    values = stored(table_name, column)
    value = values[rank % len(values)]
    return int(value) if shift == "int" else value + shift


def scan(table, column, band, share):
    """The scan's rows and counters, and the positions its mask names
    (None: the index read), with the cutoff at *share*. The cutoff is
    set in the globals ``_masked`` reads: a planted copy has its own."""
    counters = ExecCounters()
    node = LogicalScan(table.name, "index_range", access_column=column,
                       band=band)
    with mock.patch.dict(VecScanOp._masked.__globals__,
                         RANGE_MASK_SHARE=share), \
            mock.patch.object(vectorized, "BATCH_SIZE", 7):
        op = VecScanOp(counters, table, node)
        masked = op._masked()
        rows = list(op.rows())
    return rows, {name: getattr(counters, name) for name in COUNTERS}, \
        masked


def check_masks():
    """Run the property: both regimes ≡ ``positions_of(range(band))``."""

    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True, report_multiple_bugs=False,
              suppress_health_check=[HealthCheck.too_slow])
    # ``resolution <= v``: the NULL keys' slots hold 0, inside the band.
    @example((("nullable", "resolution"), None, (0, 0), True, True))
    # ``p_affinity >= v`` at a stored value.
    @example((("bindings", "p_affinity"), (40, 0), None, True, True))
    # ``leaf_pre in (v, v]``: empty, a strict end meeting a closed one.
    @example((("bindings", "leaf_pre"), (3, 0), (3, 0), False, True))
    # ``leaf_pre > 10.5 AND leaf_pre < 3``: crossed.
    @example((("bindings", "leaf_pre"), (10, 0.5), (3, 0), False, False))
    # An int end on the FLOAT column, both ends infinite on the INT one.
    @example((("bindings", "p_affinity"), (5, "int"), (90, 0), True, False))
    @example((("bindings", "leaf_pre"), -INF, INF, True, True))
    @given(bands)
    def agree(spec):
        (table_name, column), low, high, include_low, include_high = spec
        table = tables()[table_name]
        band = Band(literal(table_name, column, low),
                    literal(table_name, column, high),
                    include_low, include_high)
        store = table.column_store()
        index = table.index_on(column, require_range=True)
        expected = store.positions_of(index.range(*band))

        masked_rows, masked_counters, masked = scan(table, column, band,
                                                    MASK)
        assert masked is not None and masked.dtype == np.intp, band
        assert masked.tolist() == expected.tolist(), band
        read_rows, read_counters, unmasked = scan(table, column, band, INDEX)
        assert unmasked is None, band
        assert masked_rows == read_rows, band
        assert masked_counters == read_counters, band

    agree()


def test_the_mask_names_the_index_reads_positions():
    check_masks()


@pytest.mark.parametrize("bug", [
    # NULL keys' slots (0 in the mirror) join the band.
    ("else valid[:n]", "else None"),
    # A closed low end loses the rows at it.
    ('">=" if include_low', '">" if include_low'),
])
def test_planted_bug_in_the_mask_is_caught(bug):
    planted = with_planted_bug(VecScanOp._masked, bug)
    with mock.patch.object(VecScanOp, "_masked", planted), \
            pytest.raises(AssertionError):
        check_masks()


# -- scans that keep the index read ----------------------------------------

@pytest.fixture
def drugtree():
    return build_dataset(DatasetConfig(n_leaves=16, n_ligands=24,
                                       seed=17)).drugtree()


def poison(drugtree, column, value):
    """Append, unlogged (no validation), a copy of the first binding
    with *column* set to *value*: the column's mirror is refused."""
    table = drugtree.tables["bindings"]
    table.column_store()
    _, row = next(iter(table.scan()))
    at = table.schema.index_of(column)
    row = row[:at] + (value,) + row[at + 1:]
    table.append_rows([(table.next_row_id, row)], log=False)
    assert table.column_store().typed(column) is None


def reads_of(drugtree, column):
    """Count the calls of the sorted index's ``range`` on *column*."""
    index = drugtree.tables["bindings"].index_on(column, require_range=True)
    calls = []
    original = index.range

    def counted(*band):
        calls.append(band)
        return original(*band)

    index.range = counted
    return calls


def answers(drugtree, query, config=EngineConfig(use_semantic_cache=False)):
    engine = QueryEngine(drugtree, config)
    assert "IndexRangeScan" in engine.explain(query)
    with mock.patch.object(vectorized, "RANGE_MASK_SHARE", MASK):
        got = engine.execute(query)
    assert "VecScanOp" in got.counters["operators"]
    assert got.rows == OverlayNaive(drugtree).execute(query).rows
    return got


class TestFallsBackToTheIndex:
    """With the cutoff at zero every range may mask; these may not."""

    LEAF_BAND = ("SELECT ligand_id, leaf_pre, p_affinity FROM bindings "
                 "WHERE leaf_pre >= 1 AND leaf_pre <= 2")
    AFFINITY_BAND = ("SELECT ligand_id, p_affinity FROM bindings "
                     "WHERE p_affinity >= 8.0")

    def test_a_mirrored_column_masks(self, drugtree):
        # The control: the index is not read.
        reads = reads_of(drugtree, "leaf_pre")
        assert len(answers(drugtree, self.LEAF_BAND)) > 0
        assert reads == []

    def test_a_bool_in_an_int_column(self, drugtree):
        poison(drugtree, "leaf_pre", True)
        reads = reads_of(drugtree, "leaf_pre")
        answers(drugtree, self.LEAF_BAND)
        assert reads == [(1, 2, True, True)]

    def test_an_int_past_float64s_exact_range(self, drugtree):
        poison(drugtree, "p_affinity", 2 ** 53)
        reads = reads_of(drugtree, "p_affinity")
        got = answers(drugtree, self.AFFINITY_BAND)
        assert reads == [(8.0, None, True, True)]
        assert 2 ** 53 in got.column("p_affinity")

    def test_a_bool_literal_on_a_float_column(self, drugtree):
        # Python orders True as 1; numpy would too, but only a literal
        # of the column's kind may use the mirror.
        query = Query(select=("ligand_id", "p_affinity"), predicates=(
            Comparison("p_affinity", ">=", True),
            Comparison("p_affinity", "<", 5.2)))
        reads = reads_of(drugtree, "p_affinity")
        answers(drugtree, query, EngineConfig(
            use_semantic_cache=False, use_semantic_analysis=False))
        assert reads == [(True, 5.2, True, False)]
