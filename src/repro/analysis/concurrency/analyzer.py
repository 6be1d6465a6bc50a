"""Concurrency rules, baselines, and the analyzer entry points.

Turns a linked :class:`~repro.analysis.concurrency.program.Program` into
CONC diagnostics:

==========  ==========================================================
``CONC101``  Unguarded shared-state write reachable from a thread
             entry: a ``self.attr`` (or captured attribute /
             subscript / ``nonlocal``) write in a function that a
             worker thread can reach, with no lock held at the write
             — statically or anywhere on the call path into it.
             Thread-local state (paths through ``_local``) and
             ``__init__`` bodies (construction happens-before
             publication) are exempt.
``CONC102``  Unguarded module-global write reachable from a thread
             entry.
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
import re
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
from repro.analysis.registry import rules_for, severity_of

#: This pass's slice of the shared rule catalog: code → Rule.
CONC_RULES = rules_for("concurrency")

#: Default baseline file name, discovered by upward walk.
BASELINE_NAME = "concurrency.baseline.json"

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9,\s]+))?",
                      re.IGNORECASE)


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


def _thread_local_path(path: str) -> bool:
    return any(part.startswith("_local") for part in path.split("."))


def shared_state_findings(program: Program) -> list[Finding]:
    """CONC101/CONC102: unguarded writes reachable from thread entries."""
    findings: list[Finding] = []
    closure_entries = {qual for qual in program.entries
                       if program.functions.get(qual) is not None
                       and program.functions[qual].nested}
    for qual in sorted(program.reachable):
        fn = program.functions.get(qual)
        if fn is None:
            continue
        path = program.path_of(fn)
        in_closure_entry = qual in closure_entries
        is_method = fn.cls is not None
        if fn.name == "__init__":
            continue  # construction happens-before sharing
        for write in fn.writes:
            if not _is_unguarded(program, qual, write.held):
                continue
            if write.shape == "global":
                findings.append(Finding(
                    "CONC102",
                    f"unguarded write to module global "
                    f"{write.path!r} in {qual}, reachable from a "
                    "thread entry",
                    path, write.line,
                    key=f"{qual}:{write.path}",
                    hint="guard it with a lock or confine it to one "
                         "thread",
                ))
                continue
            if write.shape == "selfattr":
                if _thread_local_path(write.path):
                    continue
                if not is_method and not in_closure_entry:
                    continue
                if in_closure_entry:
                    message = (
                        f"unguarded write to self.{write.path} inside "
                        f"thread-entry worker {qual}; workers must "
                        "stay pure — advance counters and "
                        "accumulators on the coordinating thread")
                    hint = None
                else:
                    message = (
                        f"unguarded write to self.{write.path} in "
                        f"{qual}, reachable from a thread entry "
                        "without a dominating lock")
                    hint = ("hold the owning lock at the write or on "
                            "every path into it")
                findings.append(Finding(
                    "CONC101", message, path, write.line,
                    key=f"{qual}:{write.path}", hint=hint,
                ))
                continue
            if in_closure_entry and write.shape in ("attr", "subscript",
                                                    "nonlocal"):
                findings.append(Finding(
                    "CONC101",
                    f"unguarded {write.shape} write to {write.path!r} "
                    f"inside thread-entry closure {qual}; workers "
                    "must stay pure — accumulate on the coordinating "
                    "thread",
                    path, write.line,
                    key=f"{qual}:{write.path}",
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
    if not 0 < finding.line <= len(lines):
        return False
    match = _NOQA_RE.search(lines[finding.line - 1])
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True
    listed = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return finding.code.upper() in listed


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


def iter_python_files(paths: list[str]) -> list[str]:
    """Every ``*.py`` under *paths* (files or directories), sorted."""
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs
                if d != "__pycache__" and not d.endswith(".egg-info"))
            files.extend(os.path.join(root, name)
                         for name in sorted(names)
                         if name.endswith(".py"))
    return files


def analyze_paths(paths: list[str],
                  baseline: Baseline | None = None) -> AnalysisResult:
    """Analyze every Python file under *paths* as one program."""
    if baseline is None:
        baseline = find_baseline(paths)
    named: list[tuple[str, str]] = []
    for file_path in iter_python_files(paths):
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
