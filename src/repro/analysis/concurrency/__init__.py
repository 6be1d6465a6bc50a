"""Whole-program concurrency analysis: unguarded shared writes, lock order.

Three layers:

* :mod:`~repro.analysis.concurrency.model` — per-module AST extraction
  (functions, calls, lock scopes, writes to ``self`` state);
* :mod:`~repro.analysis.concurrency.program` — linking: call graph,
  shared (lock-owning) classes, lock canonicalization, the must-held
  fixpoint, the global lock-order graph, and the blocking closure;
* :mod:`~repro.analysis.concurrency.analyzer` — the CONC rule set,
  noqa suppression, and the ``analyze_paths`` /
  ``analyze_sources`` entry points used by ``repro race``.

The runtime half of the story — the lock-order witness that checks the
static graph against real executions — lives in
:mod:`repro.obs.lockwatch` and is enabled suite-wide via ``conftest``.
"""

from repro.analysis.concurrency.analyzer import (
    AnalysisResult,
    CONC_RULES,
    Finding,
    analyze_paths,
    analyze_sources,
    collect_findings,
)
from repro.analysis.concurrency.model import ModuleModel, extract_module
from repro.analysis.concurrency.program import (
    Program,
    link,
    lock_cycles,
)

__all__ = [
    "AnalysisResult",
    "CONC_RULES",
    "Finding",
    "ModuleModel",
    "Program",
    "analyze_paths",
    "analyze_sources",
    "collect_findings",
    "extract_module",
    "link",
    "lock_cycles",
]
