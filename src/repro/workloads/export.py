"""Dataset export in standard bioinformatics interchange formats.

A downstream user should be able to take a synthetic world out of this
library and into their own tools: sequences as FASTA, the tree as
Newick, compounds as a SMILES file, bindings and protein metadata as
CSV.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.bio.seq import write_fasta
from repro.workloads.datasets import Dataset

#: Column order of bindings.csv.
BINDING_COLUMNS = (
    "ligand_id", "protein_id", "activity_type", "value_nm",
    "p_affinity", "assay_id", "source",
)

#: Column order of proteins.csv.
PROTEIN_COLUMNS = ("protein_id", "organism", "family")


def export_dataset(dataset: Dataset,
                   directory: str | Path) -> dict[str, Path]:
    """Write the dataset's standard-format files into *directory*.

    Returns a mapping from artefact name to the written path:
    ``sequences`` (FASTA), ``tree`` (Newick), ``ligands`` (SMILES),
    ``bindings`` and ``proteins`` (CSV).
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    paths["sequences"] = target / "sequences.fasta"
    paths["sequences"].write_text(
        write_fasta(dataset.family.sequences), "utf-8",
    )

    paths["tree"] = target / "tree.nwk"
    paths["tree"].write_text(dataset.tree.to_newick() + "\n", "utf-8")

    paths["ligands"] = target / "ligands.smi"
    lines = [
        f"{ligand.smiles}\t{ligand.ligand_id}"
        for ligand in dataset.ligands
    ]
    paths["ligands"].write_text("\n".join(lines) + "\n", "utf-8")

    paths["bindings"] = target / "bindings.csv"
    with paths["bindings"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(BINDING_COLUMNS)
        for record in dataset.bindings:
            writer.writerow([
                record.ligand_id,
                record.protein_id,
                record.activity_type.value,
                f"{record.value_nm:.6g}",
                f"{record.p_affinity:.4f}",
                record.assay_id,
                record.source,
            ])

    paths["proteins"] = target / "proteins.csv"
    with paths["proteins"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROTEIN_COLUMNS)
        for protein_id in dataset.family.protein_ids:
            writer.writerow([
                protein_id,
                dataset.family.organisms[protein_id],
                dataset.family.families[protein_id],
            ])
    return paths
