"""Binding-affinity records: the ligand-side payload of DrugTree.

A :class:`BindingRecord` states how strongly one ligand binds one protein,
in the units activity databases actually report (Ki/Kd/IC50/EC50 in nM,
µM, ...). Everything downstream works in pAffinity (``9 - log10(nM)``,
i.e. pKi-style) so that larger is stronger and values are comparable
across measurement types.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.errors import ChemError


class ActivityType(enum.Enum):
    """What kind of measurement produced the affinity value."""

    KI = "Ki"
    KD = "Kd"
    IC50 = "IC50"
    EC50 = "EC50"


#: Multipliers to nanomolar.
_UNIT_TO_NM: dict[str, float] = {
    "pM": 1e-3,
    "nM": 1.0,
    "uM": 1e3,
    "µM": 1e3,
    "mM": 1e6,
    "M": 1e9,
}


def to_nanomolar(value: float, unit: str) -> float:
    """Convert an affinity *value* in *unit* to nanomolar."""
    if value <= 0:
        raise ChemError(f"affinity must be positive, got {value}")
    try:
        return value * _UNIT_TO_NM[unit]
    except KeyError:
        known = ", ".join(sorted(_UNIT_TO_NM))
        raise ChemError(f"unknown unit {unit!r} (known: {known})") from None


def p_affinity(nanomolar: float) -> float:
    """pAffinity = 9 - log10(value in nM); 1 nM → 9.0, 1 µM → 6.0."""
    if nanomolar <= 0:
        raise ChemError("affinity must be positive")
    return 9.0 - math.log10(nanomolar)


@dataclass(frozen=True)
class BindingRecord:
    """One measured interaction between a ligand and a protein.

    Parameters
    ----------
    ligand_id:
        Identifier of the compound (matches the ligand tables).
    protein_id:
        Identifier of the protein (matches a tree leaf / PDB entry).
    activity_type:
        The measurement kind (Ki, Kd, IC50, EC50).
    value_nm:
        The measured value, already normalised to nanomolar.
    assay_id:
        Identifier of the originating assay, for provenance.
    source:
        Name of the data source the record came from.
    """

    ligand_id: str
    protein_id: str
    activity_type: ActivityType
    value_nm: float
    assay_id: str = field(default="", compare=False)
    source: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.ligand_id or not self.protein_id:
            raise ChemError("binding record needs ligand and protein ids")
        if self.value_nm <= 0:
            raise ChemError(
                f"affinity must be positive, got {self.value_nm} nM"
            )

    @property
    def p_affinity(self) -> float:
        """pKi/pKd-style affinity; larger means stronger binding."""
        return p_affinity(self.value_nm)

    @property
    def is_potent(self) -> bool:
        """Sub-micromolar binding (the usual hit threshold)."""
        return self.value_nm < 1000.0


def aggregate_p_affinity(records: list[BindingRecord]) -> dict[str, float]:
    """Summary statistics over a set of binding records.

    Returns count / mean / min / max of pAffinity plus the fraction of
    potent (sub-µM) records; the same statistics the clade materialized
    views maintain.
    """
    if not records:
        return {"count": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "potent_fraction": 0.0}
    values = [record.p_affinity for record in records]
    potent = sum(record.is_potent for record in records)
    return {
        "count": float(len(records)),
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
        "potent_fraction": potent / len(records),
    }
