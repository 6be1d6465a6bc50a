"""Per-class concurrency analysis: unguarded shared writes, a class's
own lock order, locks held across blocking calls.

Two layers:

* :mod:`~repro.analysis.concurrency.model` — per-file AST extraction
  (classes, the locks they create, and each method's ``self`` writes,
  ``self.`` calls, lock scopes and blocking-name calls);
* :mod:`~repro.analysis.concurrency.analyzer` — shared (lock-owning)
  classes, the must-held fixpoint over same-class calls, the CONC rule
  set, noqa suppression, and the ``analyze_paths`` /
  ``analyze_sources`` entry points used by ``repro race``.

Lock order *across* classes has one detector, and it is not here: the
runtime witness in ``tests/obs/lockwatch.py``, enabled suite-wide via
``conftest``.
"""

from repro.analysis.concurrency.analyzer import (
    AnalysisResult,
    CONC_RULES,
    Finding,
    analyze_paths,
    analyze_sources,
)

__all__ = [
    "AnalysisResult",
    "CONC_RULES",
    "Finding",
    "analyze_paths",
    "analyze_sources",
]
