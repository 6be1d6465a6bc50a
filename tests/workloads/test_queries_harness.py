"""Tests for the query workload generator and the experiment harness."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    DatasetConfig,
    QueryGenerator,
    TextTable,
    WorkloadConfig,
    build_dataset,
    mean,
    percentile,
    speedup,
)
from repro.workloads.harness import time_wall


@pytest.fixture(scope="module")
def generator():
    dataset = build_dataset(DatasetConfig(n_leaves=16, n_ligands=25,
                                          seed=6))
    return QueryGenerator(dataset.family, dataset.ligands, seed=1)


class TestQueryGenerator:
    def test_each_kind_produces_valid_queries(self, generator):
        for kind in ("subtree_filter", "clade_agg", "organism_filter",
                     "property_range", "topk", "similarity", "join"):
            query = generator.draw(kind)
            assert query.signature()  # validates internally

    def test_unknown_kind(self, generator):
        with pytest.raises(WorkloadError):
            generator.draw("quantum")

    def test_workload_size_and_mix(self, generator):
        workload = generator.workload(WorkloadConfig(n_queries=30,
                                                     seed=2))
        assert len(workload) == 30

    def test_workload_config_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(n_queries=0)

    def test_navigation_session_narrows(self, generator):
        session = generator.navigation_session(steps=8,
                                               revisit_probability=0.0)
        subtree_queries = [q for q in session if q.subtree is not None]
        assert len(subtree_queries) == len(session)
        # Thresholds tighten monotonically across filter queries.
        thresholds = [
            q.predicates[0].value for q in session if q.predicates
        ]
        assert thresholds == sorted(thresholds)

    def test_session_revisits_repeat_queries(self, generator):
        session = generator.navigation_session(steps=20,
                                               revisit_probability=0.9)
        signatures = [q.signature() for q in session]
        assert len(set(signatures)) < len(signatures)


class TestTextTable:
    def test_render_alignment(self):
        table = TextTable(["name", "value"], title="demo")
        table.add_row("alpha", 1.5)
        table.add_row("much_longer_name", 123456.0)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1]
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1  # all data rows equally wide

    def test_row_arity_checked(self):
        table = TextTable(["a", "b"])
        with pytest.raises(WorkloadError):
            table.add_row(1)

    def test_cell_formatting(self):
        table = TextTable(["x"])
        table.add_row(True)
        table.add_row(0.12345)
        table.add_row(1234567.0)
        text = table.render()
        assert "yes" in text
        assert "0.1235" in text  # small floats keep 4 decimals (rounded)
        assert "1,234,567" in text

    def test_empty_headers_rejected(self):
        with pytest.raises(WorkloadError):
            TextTable([])


    @pytest.mark.parametrize("value,cell", [
        (False, "no"),
        (0.0, "0"),
        (2.5, "2.50"),
        (-1500.0, "-1,500"),
        (7, "7"),
        ("abc", "abc"),
    ])
    def test_cell_format_by_type_and_magnitude(self, value, cell):
        table = TextTable(["x"])
        table.add_row(value)
        assert table.rows == [[cell]]

    def test_numbers_align_right_and_text_left(self):
        table = TextTable(["label", "count"])
        table.add_row("a", 5)
        table.add_row("longer", 12345)
        rows = table.render().splitlines()[2:]
        assert rows[0] == "a           5"
        assert rows[1] == "longer  12345"

    def test_str_is_the_rendered_table(self):
        table = TextTable(["a"], title="t")
        table.add_row(1)
        assert str(table) == table.render()


class TestStatsHelpers:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_percentile(self):
        values = [float(i) for i in range(101)]
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 0.5) == 50.0
        assert percentile(values, 1.0) == 100.0
        with pytest.raises(WorkloadError):
            percentile(values, 1.5)

    def test_speedup_formatting(self):
        assert speedup(10.0, 2.0) == "5.0x"
        assert speedup(10.0, 0.0) == "inf"

    def test_time_wall_returns_the_result_and_its_duration(self):
        result, elapsed = time_wall(lambda: sum(range(1000)))
        assert result == 499500
        assert elapsed >= 0.0
