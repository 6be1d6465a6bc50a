"""Severity-tagged rule registry shared by the lint and race passes.

Every static-analysis rule the repo enforces lives here as one
:class:`Rule` — stable code, severity, one-line summary, and the pass
that owns it — so ``repro lint`` and ``repro race`` list and gate from
a single catalog instead of each tool keeping a private dict.  Each
finding has one code and one owner:

* ``L0xx``    — per-module repository invariants (``repro lint``);
* ``CONC1xx`` — shared-state race rules (``repro race``);
* ``CONC2xx`` — lock-order rules (a class's own locks in opposite
  orders, lock held across blocking calls).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diag import Severity


@dataclass(frozen=True)
class Rule:
    """One static-analysis rule in the shared catalog."""

    code: str
    severity: Severity
    summary: str
    domain: str          # "lint" | "concurrency"


RULES: dict[str, Rule] = {rule.code: rule for rule in (
    # -- per-module repository invariants (repro lint) ---------------------
    Rule("L000", Severity.ERROR,
         "source file failed to parse", "lint"),
    Rule("L001", Severity.ERROR,
         "wall-clock call outside obs/timing.py", "lint"),
    Rule("L002", Severity.ERROR,
         "bare Lock.acquire() without 'with'", "lint"),
    Rule("L004", Severity.ERROR,
         "unseeded randomness in core paths", "lint"),
    Rule("L005", Severity.ERROR,
         "source fault silently swallowed (except ...: pass)", "lint"),
    Rule("L006", Severity.ERROR,
         "per-row dispatch inside the vectorized batch path", "lint"),
    Rule("L007", Severity.ERROR,
         "direct file mutation outside storage/durable and obs", "lint"),
    # -- per-class concurrency rules (repro race) --------------------------
    Rule("CONC000", Severity.ERROR,
         "source file failed to parse", "concurrency"),
    Rule("CONC101", Severity.ERROR,
         "unguarded write to self state in a lock-owning class",
         "concurrency"),
    Rule("CONC201", Severity.ERROR,
         "lock-order cycle (potential deadlock)", "concurrency"),
    Rule("CONC202", Severity.WARNING,
         "lock held across a blocking or latency-charging call",
         "concurrency"),
)}


def rules_for(domain: str) -> dict[str, Rule]:
    """The catalog slice one pass owns."""
    return {code: rule for code, rule in RULES.items()
            if rule.domain == domain}
