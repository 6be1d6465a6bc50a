"""Tests for binding affinity records."""

import pytest

from repro.chem import (
    ActivityType,
    BindingRecord,
    aggregate_p_affinity,
    p_affinity,
    to_nanomolar,
)
from repro.errors import ChemError


class TestUnits:
    @pytest.mark.parametrize("value,unit,expected", [
        (1.0, "nM", 1.0),
        (1.0, "uM", 1000.0),
        (1.0, "µM", 1000.0),
        (1.0, "mM", 1e6),
        (1.0, "M", 1e9),
        (500.0, "pM", 0.5),
    ])
    def test_conversion(self, value, unit, expected):
        assert to_nanomolar(value, unit) == pytest.approx(expected)

    def test_unknown_unit(self):
        with pytest.raises(ChemError, match="unknown unit"):
            to_nanomolar(1.0, "furlongs")

    def test_non_positive_rejected(self):
        with pytest.raises(ChemError):
            to_nanomolar(0.0, "nM")
        with pytest.raises(ChemError):
            to_nanomolar(-5.0, "nM")


class TestPAffinity:
    def test_one_nanomolar_is_nine(self):
        assert p_affinity(1.0) == pytest.approx(9.0)

    def test_one_micromolar_is_six(self):
        assert p_affinity(1000.0) == pytest.approx(6.0)

    def test_stronger_binding_higher_value(self):
        assert p_affinity(10.0) > p_affinity(100.0)

    def test_non_positive_rejected(self):
        with pytest.raises(ChemError):
            p_affinity(0.0)


class TestBindingRecord:
    def _record(self, nm=50.0):
        return BindingRecord("L1", "P1", ActivityType.KI, nm)

    def test_p_affinity_property(self):
        assert self._record(1.0).p_affinity == pytest.approx(9.0)

    def test_potency_threshold(self):
        assert self._record(999.0).is_potent
        assert not self._record(1000.0).is_potent

    def test_requires_ids(self):
        with pytest.raises(ChemError):
            BindingRecord("", "P1", ActivityType.KI, 1.0)
        with pytest.raises(ChemError):
            BindingRecord("L1", "", ActivityType.KI, 1.0)

    def test_requires_positive_value(self):
        with pytest.raises(ChemError):
            BindingRecord("L1", "P1", ActivityType.KI, -3.0)

    def test_equality_ignores_provenance(self):
        a = BindingRecord("L1", "P1", ActivityType.KI, 1.0, assay_id="x")
        b = BindingRecord("L1", "P1", ActivityType.KI, 1.0, assay_id="y")
        assert a == b


class TestAggregation:
    def test_empty(self):
        stats = aggregate_p_affinity([])
        assert stats["count"] == 0.0
        assert stats["potent_fraction"] == 0.0

    def test_known_values(self):
        records = [
            BindingRecord("L1", "P1", ActivityType.KI, 1.0),     # pAff 9
            BindingRecord("L2", "P1", ActivityType.KI, 1000.0),  # pAff 6
        ]
        stats = aggregate_p_affinity(records)
        assert stats["count"] == 2.0
        assert stats["mean"] == pytest.approx(7.5)
        assert stats["min"] == pytest.approx(6.0)
        assert stats["max"] == pytest.approx(9.0)
        assert stats["potent_fraction"] == pytest.approx(0.5)
