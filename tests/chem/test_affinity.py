"""Tests for binding affinity records."""

import pytest

from repro.chem import ActivityType, BindingRecord, p_affinity
from repro.errors import ChemError


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

