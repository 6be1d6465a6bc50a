"""Concurrency rules and the analyzer entry points.

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

Suppression mirrors the linter: a ``# noqa`` / ``# noqa: CONC101``
comment on the flagged line, with its reason, kills a finding at the
source. There is no other mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.analysis.lint import noqa_suppresses, python_files
from repro.analysis.registry import rules_for

#: This pass's slice of the shared rule catalog: code → Rule.
CONC_RULES = rules_for("concurrency")


@dataclass(frozen=True)
class Finding:
    """One concurrency finding with its stable (line-free) key."""

    code: str
    message: str
    file: str
    line: int
    key: str                     # stable: qualnames + detail, no lines
    hint: str | None = None


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    program: Program
    findings: list[Finding]               # unsuppressed

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
                    sources: dict[str, str]) -> AnalysisResult:
    """Link, evaluate rules, and apply noqa suppression."""
    program = link(modules)
    syntax: list[Finding] = []
    for module in modules:
        if module.syntax_error is not None:
            line, message = module.syntax_error
            syntax.append(Finding(
                "CONC000", f"syntax error: {message}",
                module.path, line, key=f"syntax:{module.name}",
            ))
    findings = [finding for finding in collect_findings(program)
                if not _suppressed_by_noqa(finding, sources)]
    return AnalysisResult(program=program, findings=syntax + findings)


def analyze_sources(
        named_sources: list[tuple[str, str]]) -> AnalysisResult:
    """Analyze in-memory sources (the test-facing entry point)."""
    modules = [extract_module(path, source)
               for path, source in named_sources]
    return analyze_modules(modules, dict(named_sources))


def analyze_paths(paths: list[str]) -> AnalysisResult:
    """Analyze every Python file under *paths* as one program."""
    named: list[tuple[str, str]] = []
    for file_path in python_files(paths):
        with open(file_path, encoding="utf-8") as handle:
            named.append((file_path, handle.read()))
    return analyze_sources(named)
