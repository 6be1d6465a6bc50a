"""Concurrency rules, baselines, and the analyzer entry points.

Turns a linked :class:`~repro.analysis.concurrency.program.Program` into
CONC diagnostics:

==========  ==========================================================
``CONC101``  Unguarded write in a lock-owning class.  A class that
             creates a ``threading.Lock`` / ``RLock`` (itself or
             through a base class) declares its instances shared;
             every write to ``self.<attr>`` in its methods —
             assignment, augmented assignment, ``self.x[k] = v``,
             ``del``, or a container-mutator call such as
             ``self.x.append(v)`` — must hold a lock at the write or
             on every call path into it.  Thread-local state (paths
             through ``_local*``) and ``__init__`` bodies
             (construction happens-before publication) are exempt.
``CONC201``  Lock-order cycle: two-plus locks acquired in opposite
             orders on different paths (potential deadlock), or a
             non-reentrant lock re-acquired while already held
             (guaranteed self-deadlock).
``CONC202``  Lock held across a blocking or latency-charging call
             (``sleep`` / ``wait`` / ``join`` / ``result`` /
             ``fetch*`` / ``advance``): serializes unrelated work
             behind the lock and inflates every waiter's latency.
==========  ==========================================================

Suppression is two-tier, mirroring the linter: a ``# noqa`` /
``# noqa: CONC101`` comment on the flagged line kills a finding at the
source, and a committed **baseline file** (``concurrency.baseline.json``)
records triaged findings by *stable key* — rule + function qualname +
detail, never line numbers — each with a mandatory justification. The
baseline is discovered by walking up from the analyzed paths (like any
tool config), so ``repro race src`` inside the repo finds the repo's
baseline without flags.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.analysis.concurrency.model import (
    BLOCKING_CALLS,
    ModuleModel,
    extract_module,
)
from repro.analysis.concurrency.program import (
    Program,
    link,
    lock_cycles,
)
from repro.analysis.diag import Diagnostic
from repro.analysis.lint import noqa_suppresses, python_files
from repro.analysis.registry import rules_for, severity_of

#: This pass's slice of the shared rule catalog: code → Rule.
CONC_RULES = rules_for("concurrency")

#: Default baseline file name, discovered by upward walk.
BASELINE_NAME = "concurrency.baseline.json"


@dataclass(frozen=True)
class Finding:
    """One concurrency finding with its stable baseline key."""

    code: str
    message: str
    file: str
    line: int
    key: str                     # stable: qualnames + detail, no lines
    hint: str | None = None

    def to_diagnostic(self) -> Diagnostic:
        return Diagnostic(self.code, severity_of(self.code),
                          self.message, file=self.file, line=self.line,
                          hint=self.hint)


@dataclass
class Baseline:
    """Triaged findings: (rule, key) → justification."""

    path: str | None = None
    suppressions: dict[tuple[str, str], str] = field(default_factory=dict)

    def justification(self, finding: Finding) -> str | None:
        return self.suppressions.get((finding.code, finding.key))

    def as_dict(self) -> dict:
        return {
            "version": 1,
            "suppressions": [
                {"rule": rule, "key": key, "justification": why}
                for (rule, key), why in sorted(self.suppressions.items())
            ],
        }


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    program: Program
    findings: list[Finding]               # unsuppressed
    baselined: list[tuple[Finding, str]]  # (finding, justification)
    baseline: Baseline

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return [finding.to_diagnostic() for finding in self.findings]

    def summary(self) -> dict[str, int]:
        """What the run covered: the numbers to watch beside findings."""
        program = self.program
        return {
            "shared_classes": len(program.shared_classes),
            "guarded_writes": sum(
                not _is_unguarded(program, qual, write.held)
                for qual, write in program.shared_writes),
            "locks": len(program.locks),
        }


def load_baseline(path: str) -> Baseline:
    """Parse a baseline file; a missing file is an empty baseline."""
    if not os.path.isfile(path):
        return Baseline(path=path)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    baseline = Baseline(path=path)
    for entry in payload.get("suppressions", ()):
        rule = entry["rule"]
        key = entry["key"]
        justification = entry.get("justification", "")
        if not justification:
            raise ValueError(
                f"baseline entry ({rule}, {key}) has no justification; "
                "every suppression must say why it is safe")
        baseline.suppressions[(rule, key)] = justification
    return baseline


def find_baseline(paths: list[str]) -> Baseline:
    """Discover ``concurrency.baseline.json`` above the analyzed paths."""
    for path in paths:
        current = os.path.abspath(path)
        if os.path.isfile(current):
            current = os.path.dirname(current)
        while True:
            candidate = os.path.join(current, BASELINE_NAME)
            if os.path.isfile(candidate):
                return load_baseline(candidate)
            parent = os.path.dirname(current)
            if parent == current:
                break
            current = parent
    return Baseline()


# ---------------------------------------------------------------------------
# rule evaluation


def _is_unguarded(program: Program, qual: str, held_raw: tuple) -> bool:
    if held_raw:
        return False
    return not program.entry_held_must.get(qual, frozenset())


def shared_state_findings(program: Program) -> list[Finding]:
    """CONC101: unguarded ``self`` writes in lock-owning classes."""
    findings: list[Finding] = []
    for qual, write in program.shared_writes:
        if not _is_unguarded(program, qual, write.held):
            continue
        fn = program.functions[qual]
        findings.append(Finding(
            "CONC101",
            f"unguarded write to self.{write.path} in {qual}: "
            f"{fn.cls.rsplit('.', 1)[-1]} owns a lock, so its state is "
            "shared, and no lock dominates this write",
            program.path_of(fn), write.line,
            key=f"{qual}:{write.path}",
            hint="hold the owning lock at the write or on every path "
                 "into it",
        ))
    return findings


def lock_order_findings(program: Program) -> list[Finding]:
    """CONC201: cycles in the lock-order graph and self-deadlocks."""
    findings: list[Finding] = []
    for edge in program.self_deadlocks:
        findings.append(Finding(
            "CONC201",
            f"non-reentrant lock {edge.acquired} re-acquired while "
            f"already held in {edge.function} (self-deadlock)",
            edge.file, edge.line,
            key=f"self:{edge.acquired}:{edge.function}",
            hint="use threading.RLock or release before re-entering",
        ))
    for cycle in lock_cycles(program):
        cycle_key = "->".join(cycle)
        # Anchor the diagnostic at the first witnessed edge inside
        # the cycle (deterministic: lexically smallest pair).
        members = set(cycle)
        witness = None
        for (held, acquired), edge in sorted(program.order_edges.items()):
            if held in members and acquired in members:
                witness = edge
                break
        if witness is None:
            continue
        findings.append(Finding(
            "CONC201",
            f"lock-order cycle between {', '.join(cycle)}: "
            f"{witness.function} acquires {witness.acquired} while "
            f"holding {witness.held}, while another path takes them "
            "in the opposite order (potential deadlock)",
            witness.file, witness.line,
            key=f"cycle:{cycle_key}",
            hint="impose one global acquisition order for these locks",
        ))
    return findings


def held_across_blocking_findings(program: Program) -> list[Finding]:
    """CONC202: lock held across a blocking / latency-charging call."""
    findings: list[Finding] = []
    for qual in sorted(program.functions):
        fn = program.functions[qual]
        path = program.path_of(fn)
        for site in fn.calls:
            if not site.held:
                continue
            targets = program.site_targets.get(id(site), ())
            blocking = (site.name in BLOCKING_CALLS
                        and site.receiver != ("const",)) or any(
                target in program.blocking for target in targets)
            if not blocking:
                continue
            held_ids = ",".join(sorted(program.held_ids(site.held)))
            findings.append(Finding(
                "CONC202",
                f"{held_ids} held across blocking call "
                f"{site.name}() in {qual}; waiters serialize behind "
                "the lock for the full call",
                path, site.line,
                key=f"{qual}:{held_ids}:{site.name}",
                hint="compute outside the lock, or snapshot state "
                     "under it and call after release",
            ))
    return findings


def collect_findings(program: Program) -> list[Finding]:
    """All CONC findings over a linked program, deterministic order."""
    findings = (shared_state_findings(program)
                + lock_order_findings(program)
                + held_across_blocking_findings(program))
    return sorted(findings,
                  key=lambda f: (f.file, f.line, f.code, f.key))


# ---------------------------------------------------------------------------
# suppression + entry points


def _suppressed_by_noqa(finding: Finding,
                        sources: dict[str, str]) -> bool:
    source = sources.get(finding.file)
    if source is None:
        return False
    lines = source.splitlines()
    return 0 < finding.line <= len(lines) and noqa_suppresses(
        lines[finding.line - 1], finding.code)


def analyze_modules(modules: list[ModuleModel],
                    sources: dict[str, str],
                    baseline: Baseline | None = None) -> AnalysisResult:
    """Link, evaluate rules, and apply noqa + baseline suppression."""
    program = link(modules)
    baseline = baseline or Baseline()
    syntax: list[Finding] = []
    for module in modules:
        if module.syntax_error is not None:
            line, message = module.syntax_error
            syntax.append(Finding(
                "CONC000", f"syntax error: {message}",
                module.path, line, key=f"syntax:{module.name}",
            ))
    findings: list[Finding] = []
    baselined: list[tuple[Finding, str]] = []
    for finding in collect_findings(program):
        if _suppressed_by_noqa(finding, sources):
            continue
        justification = baseline.justification(finding)
        if justification is not None:
            baselined.append((finding, justification))
            continue
        findings.append(finding)
    return AnalysisResult(program=program,
                          findings=syntax + findings,
                          baselined=baselined, baseline=baseline)


def analyze_sources(named_sources: list[tuple[str, str]],
                    baseline: Baseline | None = None) -> AnalysisResult:
    """Analyze in-memory sources (the test-facing entry point)."""
    modules = [extract_module(path, source)
               for path, source in named_sources]
    sources = dict(named_sources)
    return analyze_modules(modules, sources, baseline)


def analyze_paths(paths: list[str],
                  baseline: Baseline | None = None) -> AnalysisResult:
    """Analyze every Python file under *paths* as one program."""
    if baseline is None:
        baseline = find_baseline(paths)
    named: list[tuple[str, str]] = []
    for file_path in python_files(paths):
        with open(file_path, encoding="utf-8") as handle:
            named.append((file_path, handle.read()))
    return analyze_sources(named, baseline)


def render_baseline(result: AnalysisResult) -> str:
    """Baseline JSON that would suppress every current finding.

    Printed to stdout (never written — file writes outside the durable
    engine are themselves a lint violation); the developer reviews it,
    fills in real justifications, and commits it.
    """
    merged = Baseline(suppressions=dict(result.baseline.suppressions))
    for finding in result.findings:
        if finding.code == "CONC000":
            continue
        key = (finding.code, finding.key)
        merged.suppressions.setdefault(
            key, "TODO: justify or fix before committing")
    return json.dumps(merged.as_dict(), indent=2, sort_keys=False)
