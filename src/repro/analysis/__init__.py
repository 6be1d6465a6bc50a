"""Static analysis: DTQL semantics, repository invariants, concurrency.

Three layers share one diagnostics vocabulary (:mod:`repro.analysis.diag`)
and one severity-tagged rule catalog (:mod:`repro.analysis.registry`):

* :mod:`repro.analysis.dtql` — a typed-catalog semantic pass over DTQL
  queries that runs *between* parse and plan: unknown-name suggestions,
  predicate type checking, constant folding, range analysis proving
  contradictions before any table (or remote source) is touched, and
  remote-cost warnings for federation-resolved columns;
* :mod:`repro.analysis.lint` — per-module Python-``ast`` rules over the
  repository source itself, enforcing the determinism invariants the
  runtime relies on (single wall-clock path, ``with``-guarded locks,
  seeded randomness);
* :mod:`repro.analysis.concurrency` — one lock-owning (shared) class
  at a time: unguarded ``self`` writes, the class's own locks taken in
  opposite orders, locks held across blocking calls.

``python -m repro check`` / ``lint`` / ``race`` expose the layers from
the command line (text, or JSON under ``--json``); the query engine and
the mobile server run the DTQL layer on every query they accept.
Lock order *between* classes is checked at runtime, by the test
suite's lock-order witness (``tests/obs/lockwatch.py``).
"""

from repro.analysis.catalog import Catalog
from repro.analysis.concurrency import (
    AnalysisResult,
    CONC_RULES,
    Finding,
    analyze_paths,
    analyze_sources,
)
from repro.analysis.diag import Diagnostic, Severity, Span
from repro.analysis.dtql import (
    AnalysisReport,
    SemanticAnalyzer,
    empty_result,
)
from repro.analysis.lint import LINT_RULES, lint_file, lint_paths, lint_source
from repro.analysis.registry import RULES, Rule, rules_for

__all__ = [
    "AnalysisReport",
    "AnalysisResult",
    "CONC_RULES",
    "Catalog",
    "Diagnostic",
    "Finding",
    "LINT_RULES",
    "RULES",
    "Rule",
    "SemanticAnalyzer",
    "Severity",
    "Span",
    "analyze_paths",
    "analyze_sources",
    "empty_result",
    "lint_file",
    "lint_paths",
    "lint_source",
    "rules_for",
]
