"""Which engine runs an optimized logical plan: the batch engine.

Every logical node has a batch form (:mod:`repro.core.query.vectorized`:
the materialized clade aggregate and the remote fetch included), so
every plan runs on the batch engine unless ``execution_mode="row"``
asks for the reference. :func:`choose_engine` keeps the one decision
point the executor and the perf ledger's trace both name.
"""

from __future__ import annotations

from repro.core.query.logical import LogicalNode


def choose_engine(node: LogicalNode) -> str:
    """The mode *node* runs in: ``"vectorized"``, for every plan."""
    return "vectorized"
