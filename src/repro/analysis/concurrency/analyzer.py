"""The CONC rules, evaluated one class at a time.

A class is *shared* when it, or a class it inherits from, creates a
``threading.Lock`` / ``RLock`` on ``self``; base classes are followed
across files by the name they were imported under.  Everything below
runs over the methods of shared classes and the ``self.<method>()``
calls between them — no call leaves its class chain:

==========  ==========================================================
``CONC101``  Unguarded write in a lock-owning class.  Every write to
             ``self.<attr>`` in a shared class's methods — assignment,
             augmented assignment, ``self.x[k] = v``, ``del``, or a
             container-mutator call such as ``self.x.append(v)`` —
             must hold a lock at the write or on every ``self._x()``
             path into it.  Thread-local state (paths through
             ``_local*``) and ``__init__`` bodies (construction
             happens-before publication) are exempt.
``CONC201``  A class's own locks acquired in opposite orders on
             different paths (potential deadlock), or a non-reentrant
             lock re-acquired while already held (guaranteed
             self-deadlock) — directly or through ``self._x()``.
``CONC202``  Lock held across a blocking, latency-charging or
             rendering call (a :data:`BLOCKING_CALLS` name), directly
             or through ``self._x()``: serializes unrelated work
             behind the lock and inflates every waiter's latency.
==========  ==========================================================

Lock order *between* classes is not computed here: the runtime witness
(``tests/obs/lockwatch.py``) records it from the acquisitions the test
suite actually makes.

Suppression mirrors the linter: a ``# noqa`` / ``# noqa: CONC101``
comment on the flagged line, with its reason, kills a finding at the
source. There is no other mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.concurrency.model import (
    BLOCKING_CALLS,
    Call,
    ClassModel,
    MethodModel,
    ModuleModel,
    RawLock,
    Write,
    extract_module,
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


class Program:
    """The shared classes of the analyzed files and what holds in them."""

    def __init__(self, modules: list[ModuleModel]) -> None:
        self.classes: dict[str, ClassModel] = {
            qual: cls for module in modules
            for qual, cls in module.classes.items()}
        self._chains: dict[str, list[ClassModel]] = {}
        #: qualnames of classes with a lock in their inheritance chain
        self.shared_classes = {
            qual for qual, cls in self.classes.items()
            if any(link.lock_attrs for link in self.class_chain(cls))}
        #: every method a shared class defines or inherits, by qualname
        self.methods: dict[str, MethodModel] = {
            method.qualname: method
            for qual in sorted(self.shared_classes)
            for link in self.class_chain(self.classes[qual])
            for method in link.methods.values()}
        #: canonical lock id → reentrant, for every lock they take
        self.locks: dict[str, bool] = {}
        for method in self.methods.values():
            for acquire in method.acquires:
                self.lock_id(method, acquire.lock)
        #: every checked write: (method qualname, write).  Exempt:
        #: __init__ (construction happens-before sharing) and paths
        #: through a `_local*` attribute (threading.local state).
        self.shared_writes: list[tuple[str, Write]] = [
            (qual, write) for qual, method in self.methods.items()
            if method.cls in self.shared_classes
            and method.name != "__init__"
            for write in method.writes
            if not any(part.startswith("_local")
                       for part in write.path.split("."))]
        self.may_held, self.must_held = self._entry_held()

    # -- class chain -------------------------------------------------------

    def class_chain(self, cls: ClassModel) -> list[ClassModel]:
        """*cls* plus the base classes the analyzed files define,
        nearest first."""
        chain = self._chains.get(cls.qualname)
        if chain is None:
            chain = self._chains[cls.qualname] = []
            frontier = [cls]
            while frontier:
                current = frontier.pop(0)
                if any(link is current for link in chain):
                    continue
                chain.append(current)
                for base in current.bases:
                    found = self.classes.get(f"{current.module}.{base}") \
                        or self.classes.get(base)
                    if found is not None:
                        frontier.append(found)
        return chain

    def callee(self, method: MethodModel, call: Call) -> MethodModel | None:
        """The method a ``self.<name>()`` call reaches, looked up from
        the class that wrote the call."""
        if call.on_self:
            for link in self.class_chain(self.classes[method.cls]):
                if call.name in link.methods:
                    return link.methods[call.name]
        return None

    # -- lock identity -----------------------------------------------------

    def lock_id(self, method: MethodModel, raw: RawLock) -> str:
        """``Owner.attr`` for a ``self`` lock (``Owner`` = the class in
        the chain that created it), ``*.name`` for any other."""
        kind, name = raw
        lock_id, reentrant = f"*.{name}", False
        if kind == "self":
            lock_id = f"{method.cls}.{name}"
            for link in self.class_chain(self.classes[method.cls]):
                if name in link.lock_attrs:
                    lock_id = f"{link.qualname}.{name}"
                    reentrant = link.lock_attrs[name]
                    break
        self.locks[lock_id] = reentrant
        return lock_id

    def held_ids(self, method: MethodModel,
                 raw_held: tuple[RawLock, ...]) -> frozenset[str]:
        return frozenset(self.lock_id(method, raw) for raw in raw_held)

    # -- entry-held fixpoints ----------------------------------------------

    def _entry_held(self) -> tuple[dict[str, frozenset[str]],
                                   dict[str, frozenset[str]]]:
        """Locks held on entry to each method, over ``self._x()`` edges.

        *may* is the union over call sites (any possible order matters
        to CONC201).  *must* is the intersection (a write is guarded
        only if some lock covers every path to it): public methods,
        dunders and private helpers no ``self.`` call reaches start
        holding nothing — any thread may call them; a private helper
        somebody calls starts at ⊤ (``None``) and intersects the lock
        sets of its call sites.
        """
        edges = [(method.qualname, target.qualname,
                  self.held_ids(method, call.held))
                 for method in self.methods.values()
                 for call in method.calls
                 if (target := self.callee(method, call)) is not None]
        called = {callee for _, callee, _ in edges}
        may = {qual: frozenset() for qual in self.methods}
        must: dict[str, frozenset[str] | None] = {}
        for qual, method in self.methods.items():
            private = method.name.startswith("_") \
                and not method.name.endswith("__")
            must[qual] = None if private and qual in called \
                else frozenset()
        changed = True
        while changed:
            changed = False
            for caller, callee, held in edges:
                if not (held | may[caller]) <= may[callee]:
                    may[callee] |= held | may[caller]
                    changed = True
                if must[caller] is None:
                    continue
                site = held | must[caller]
                narrowed = site if must[callee] is None \
                    else must[callee] & site
                if narrowed != must[callee]:
                    must[callee] = narrowed
                    changed = True
        return may, {qual: held or frozenset()
                     for qual, held in must.items()}

    def is_guarded(self, qual: str, write: Write) -> bool:
        return bool(write.held or self.must_held[qual])


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
                program.is_guarded(qual, write)
                for qual, write in program.shared_writes),
            "locks": len(program.locks),
        }


# ---------------------------------------------------------------------------
# rule evaluation


def shared_state_findings(program: Program) -> list[Finding]:
    """CONC101: unguarded ``self`` writes in lock-owning classes."""
    findings: list[Finding] = []
    for qual, write in program.shared_writes:
        if program.is_guarded(qual, write):
            continue
        method = program.methods[qual]
        findings.append(Finding(
            "CONC101",
            f"unguarded write to self.{write.path} in {qual}: "
            f"{method.cls.rsplit('.', 1)[-1]} owns a lock, so its state "
            "is shared, and no lock dominates this write",
            method.path, write.line,
            key=f"{qual}:{write.path}",
            hint="hold the owning lock at the write or on every path "
                 "into it",
        ))
    return findings


def lock_cycles(edges) -> list[tuple[str, ...]]:
    """Groups of two-plus locks that reach each other in the order
    graph *edges* (``(held, acquired)`` pairs), each sorted."""
    graph: dict[str, set[str]] = {}
    for held, acquired in edges:
        graph.setdefault(held, set()).add(acquired)

    def reachable(start: str) -> set[str]:
        seen: set[str] = set()
        frontier = [start]
        while frontier:
            for successor in graph.get(frontier.pop(), ()):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return seen

    reach = {node: reachable(node) for node in graph}
    return sorted({
        tuple(sorted(other for other in reach[node]
                     if node in reach.get(other, ())))
        for node in graph if node in reach[node]})


def lock_order_findings(program: Program) -> list[Finding]:
    """CONC201: a class's locks in opposite orders, and self-deadlocks."""
    findings: list[Finding] = []
    #: (held, acquired) → first witness: the acquiring method and line
    order_edges: dict[tuple[str, str], tuple[MethodModel, int]] = {}
    for qual, method in program.methods.items():
        for acquire in method.acquires:
            acquired = program.lock_id(method, acquire.lock)
            context = program.held_ids(method, acquire.held) \
                | program.may_held[qual]
            if acquired not in context:
                for held in sorted(context):
                    order_edges.setdefault((held, acquired),
                                           (method, acquire.line))
            elif not program.locks[acquired]:
                findings.append(Finding(
                    "CONC201",
                    f"non-reentrant lock {acquired} re-acquired while "
                    f"already held in {qual} (self-deadlock)",
                    method.path, acquire.line,
                    key=f"self:{acquired}:{qual}",
                    hint="use threading.RLock or release before "
                         "re-entering",
                ))
    for cycle in lock_cycles(order_edges):
        # Anchor the diagnostic at the first witnessed edge inside
        # the cycle (deterministic: lexically smallest pair).
        held, acquired = min(pair for pair in order_edges
                             if pair[0] in cycle and pair[1] in cycle)
        method, line = order_edges[held, acquired]
        findings.append(Finding(
            "CONC201",
            f"lock-order cycle between {', '.join(cycle)}: "
            f"{method.qualname} acquires {acquired} while holding "
            f"{held}, while another path takes them in the opposite "
            "order (potential deadlock)",
            method.path, line,
            key=f"cycle:{'->'.join(cycle)}",
            hint="impose one global acquisition order for these locks",
        ))
    return findings


def held_across_blocking_findings(program: Program) -> list[Finding]:
    """CONC202: lock held across a blocking / latency-charging call."""
    # Methods that reach a BLOCKING_CALLS name, through self-calls.
    blocking: set[str] = set()
    changed = True
    while changed:
        changed = False
        for qual, method in program.methods.items():
            if qual not in blocking and any(
                    _blocks(program, method, call, blocking)
                    for call in method.calls):
                blocking.add(qual)
                changed = True
    findings: list[Finding] = []
    for qual in sorted(program.methods):
        method = program.methods[qual]
        for call in method.calls:
            if not call.held or not (
                    call.name in BLOCKING_CALLS
                    or _blocks(program, method, call, blocking)):
                continue
            held_ids = ",".join(sorted(
                program.held_ids(method, call.held)))
            findings.append(Finding(
                "CONC202",
                f"{held_ids} held across blocking call "
                f"{call.name}() in {qual}; waiters serialize behind "
                "the lock for the full call",
                method.path, call.line,
                key=f"{qual}:{held_ids}:{call.name}",
                hint="compute outside the lock, or snapshot state "
                     "under it and call after release",
            ))
    return findings


def _blocks(program: Program, method: MethodModel, call: Call,
            blocking: set[str]) -> bool:
    """A ``self._x()`` call blocks if its callee does; any other
    modelled call is a BLOCKING_CALLS name."""
    target = program.callee(method, call)
    if target is not None:
        return target.qualname in blocking
    return call.name in BLOCKING_CALLS


def collect_findings(program: Program) -> list[Finding]:
    """All CONC findings over the shared classes, deterministic order."""
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
    """Evaluate the rules over *modules* and apply noqa suppression."""
    program = Program(modules)
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
    """Analyze every Python file under *paths*."""
    named: list[tuple[str, str]] = []
    for file_path in python_files(paths):
        with open(file_path, encoding="utf-8") as handle:
            named.append((file_path, handle.read()))
    return analyze_sources(named)
