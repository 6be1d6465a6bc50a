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
