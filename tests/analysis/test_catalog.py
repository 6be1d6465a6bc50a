"""Tests for the analyzer's typed column catalog."""

from repro.analysis import Catalog
from repro.storage.schema import ColumnType


class TestDefaultCatalog:
    def setup_method(self):
        self.catalog = Catalog.default()

    def test_overlay_columns_present(self):
        for name in ("ligand_id", "protein_id", "value_nm", "p_affinity",
                     "potent", "organism", "family", "smiles", "logp"):
            assert self.catalog.get(name) is not None

    def test_types_match_overlay_schemas(self):
        assert self.catalog.column_type("organism") is ColumnType.STRING
        assert self.catalog.column_type("value_nm") is ColumnType.FLOAT
        assert self.catalog.column_type("potent") is ColumnType.BOOL
        assert self.catalog.column_type("leaf_pre") is ColumnType.INT

    def test_shared_key_column_lists_all_owner_tables(self):
        info = self.catalog.get("ligand_id")
        assert set(info.tables) >= {"bindings", "ligands"}

    def test_remote_columns_flagged(self):
        for name in ("method", "go_terms", "keywords"):
            info = self.catalog.get(name)
            assert info.type is None
            assert info.tables == ("proteins",)
        assert self.catalog.get("organism").type is not None

    def test_unknown_name(self):
        assert self.catalog.get("warp_factor") is None
        assert self.catalog.column_type("warp_factor") is None


class TestSuggestions:
    def setup_method(self):
        self.catalog = Catalog.default()

    def test_close_misspelling(self):
        assert "family" in self.catalog.suggest("ffamily")
        assert "organism" in self.catalog.suggest("organsim")

    def test_garbage_has_no_suggestion(self):
        assert self.catalog.suggest("zzzzqqqq") == ()

    def test_table_suggestion(self):
        assert "proteins" in self.catalog.suggest("protein", table=True)
        assert "bindings" in self.catalog.suggest("binding", table=True)
        assert "proteins" not in self.catalog.suggest("protein")

    def test_stored_only_leaves_out_remote_details(self):
        assert "method" in self.catalog.suggest("methd")
        assert "method" not in self.catalog.suggest("methd",
                                                    stored_only=True)
        assert "family" in self.catalog.suggest("ffamily",
                                                stored_only=True)

    def test_limit_respected(self):
        assert len(self.catalog.suggest("ligand_i", limit=2)) <= 2


class TestAggregateOutputTypes:
    def setup_method(self):
        self.catalog = Catalog.default()

    def test_count_is_int(self):
        assert self.catalog.aggregate_output_type("count_all") \
            is ColumnType.INT
        assert self.catalog.aggregate_output_type("count_value_nm") \
            is ColumnType.INT

    def test_sum_and_mean_are_float(self):
        assert self.catalog.aggregate_output_type("sum_value_nm") \
            is ColumnType.FLOAT
        assert self.catalog.aggregate_output_type("mean_p_affinity") \
            is ColumnType.FLOAT

    def test_sum_and_mean_of_bool_or_string_are_invalid(self):
        # Both are DTQL004 (AggregateSpec); no output type to type.
        for name in ("sum_potent", "mean_potent", "sum_protein_id",
                     "mean_organism"):
            assert self.catalog.aggregate_output_type(name) is None

    def test_min_max_keep_column_type(self):
        assert self.catalog.aggregate_output_type("max_leaf_pre") \
            is ColumnType.INT
        assert self.catalog.aggregate_output_type("min_organism") \
            is ColumnType.STRING

    def test_unknown_decompositions(self):
        assert self.catalog.aggregate_output_type("organism") is None
        assert self.catalog.aggregate_output_type("count_warp") is None
        assert self.catalog.aggregate_output_type("median_value_nm") is None
        # Remote columns have no catalog type to propagate.
        assert self.catalog.aggregate_output_type("max_method") is None
