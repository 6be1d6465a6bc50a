"""Repository invariant linter: Python-``ast`` rules over ``src/``.

The runtime has invariants nothing type-checks: benchmarks replay in
*virtual* time, so wall-clock reads must flow through the one audited
path (``obs/timing.py``); the fetch scheduler shares caches, metrics,
and tracers across threads, so their state must only change under
their locks; workloads must be reproducible, so randomness must come
from a seeded ``random.Random``. These rules enforce each mechanically:

========  ==============================================================
``L001``  No wall-clock calls (``time.time``/``perf_counter``/
          ``monotonic``, ``datetime.now``/``utcnow``/``today``) outside
          ``obs/timing.py`` — including aliasing one to a new name.
``L002``  No bare ``.acquire()`` — locks are taken with ``with`` so
          exceptions can never leak a held lock.
``L004``  In ``core`` paths: no module-level ``random.*`` functions
          (global unseeded state) and no ``Random()`` without a seed.
``L005``  No silently swallowed source faults: an ``except`` naming a
          ``SourceError``-family exception whose body is only ``pass``
          / ``...`` hides degradation the resilience layer must flag
          (retry, record a breaker failure, or annotate a status).
``L006``  No per-row dispatch in the batch path: inside
          ``core/query/vectorized.py`` and ``storage/columnar.py``, no
          ``.matches(...)`` calls (compile the predicate once via
          ``core/query/predicates.py``) and no ``row_as_dict`` calls
          (gather column buffers instead of materializing row dicts).
``L007``  No direct file mutation outside ``storage/durable/`` and
          ``obs/``: ``open(...)`` with a writing mode (any of
          ``w``/``a``/``x``/``+``) or ``os.write`` anywhere else
          bypasses the WAL's crash-safety protocol (CRC framing,
          fsync policy, atomic manifest swap). Durable state goes
          through the durable engine.
========  ==============================================================

These are per-module rules; unguarded writes in lock-owning classes
are ``repro race``'s CONC101 (:mod:`repro.analysis.concurrency`, one
class at a time).
Suppress a finding with ``# noqa`` (all rules) or ``# noqa: L001,L004``
(listed rules) on the flagged line. ``repro lint`` runs these as the CI
gate; :func:`lint_paths` is the library entry point.
"""

from __future__ import annotations

import ast
import os
import re

from repro.analysis.diag import Diagnostic, Severity
from repro.analysis.registry import rules_for

#: This pass's slice of the shared catalog, as the historical
#: code → summary mapping (shown by ``repro lint``).
LINT_RULES: dict[str, str] = {
    code: rule.summary for code, rule in rules_for("lint").items()
    if code != "L000"
}

#: Fully-dotted callables that read the wall clock.
_WALL_CLOCK = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
})

#: The SourceError family: swallowing any of these hides degradation.
_SOURCE_ERRORS = frozenset({
    "SourceError",
    "SourceUnavailableError",
    "BreakerOpenError",
    "DeadlineExceededError",
})

#: Modules whose names we resolve through imports.
_TRACKED_MODULES = ("time", "datetime", "random", "os")

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9,\s]+))?",
                      re.IGNORECASE)


def _is_timing_module(path: str) -> bool:
    return path.replace(os.sep, "/").endswith("obs/timing.py")


def _is_core_path(path: str) -> bool:
    return "core" in path.replace(os.sep, "/").split("/")


#: Modules holding the batch execution path: these exist to amortize
#: per-row interpreter work, so per-row dispatch inside them defeats
#: their purpose (rule L006).
_BATCH_PATH_SUFFIXES = ("core/query/vectorized.py", "storage/columnar.py")

#: Calls that mark per-row dispatch inside the batch path.
_PER_ROW_CALLS = frozenset({"matches", "row_as_dict"})


def _is_batch_path(path: str) -> bool:
    normalized = path.replace(os.sep, "/")
    return normalized.endswith(_BATCH_PATH_SUFFIXES)


#: ``open()`` mode characters that make the handle writable (rule L007).
_WRITE_MODE_CHARS = frozenset("wax+")


def _may_mutate_files(path: str) -> bool:
    """Paths allowed to write files directly (rule L007).

    The durable engine owns every byte it persists (WAL framing,
    SSTable layout, manifest swaps); ``obs`` may export traces and
    metrics. Everything else must route durable state through them.
    """
    parts = path.replace(os.sep, "/").split("/")
    if "obs" in parts:
        return True
    return any(parts[i:i + 2] == ["storage", "durable"]
               for i in range(len(parts) - 1))


class _Visitor(ast.NodeVisitor):
    """One pass collecting raw (code, line, message) findings."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.timing_module = _is_timing_module(path)
        self.core_path = _is_core_path(path)
        self.batch_path = _is_batch_path(path)
        self.file_mutation_allowed = _may_mutate_files(path)
        self.findings: list[tuple[str, int, str]] = []
        self.module_aliases: dict[str, str] = {}  # local name → module
        self.symbol_imports: dict[str, str] = {}  # local name → dotted

    # -- name resolution ---------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in _TRACKED_MODULES:
                self.module_aliases[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in _TRACKED_MODULES:
            for alias in node.names:
                local = alias.asname or alias.name
                self.symbol_imports[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def _resolve(self, node: ast.expr) -> str | None:
        """Dotted name of *node* through tracked imports, or None."""
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = current.id
        parts.reverse()
        if root in self.module_aliases:
            return ".".join([self.module_aliases[root], *parts])
        if root in self.symbol_imports:
            return ".".join([self.symbol_imports[root], *parts])
        return None

    # -- L001: wall-clock reads --------------------------------------------

    def _check_wall_clock(self, node: ast.expr) -> None:
        if self.timing_module:
            return
        resolved = self._resolve(node)
        if resolved in _WALL_CLOCK:
            self.findings.append((
                "L001", node.lineno,
                f"wall-clock call {resolved} outside obs/timing.py "
                "(use repro.obs.timing.now_wall)",
            ))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_wall_clock(node)
        self.visit(node.value)  # sub-attributes can't re-match _WALL_CLOCK

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) \
                and node.id in self.symbol_imports:
            self._check_wall_clock(node)

    # -- L002 / L004: calls ------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "acquire":
            self.findings.append((
                "L002", node.lineno,
                "bare .acquire() call; take locks with 'with' so they "
                "release on exceptions",
            ))
        if self.batch_path and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _PER_ROW_CALLS:
            self.findings.append((
                "L006", node.lineno,
                f"per-row .{node.func.attr}() in the batch path; "
                "compile predicates once (core/query/predicates.py) "
                "and gather column buffers instead",
            ))
        if not self.file_mutation_allowed:
            self._check_file_mutation(node)
        if self.core_path:
            resolved = self._resolve(node.func)
            if resolved == "random.Random" and not node.args:
                self.findings.append((
                    "L004", node.lineno,
                    "Random() without a seed in a core path breaks "
                    "reproducibility",
                ))
            elif resolved is not None and resolved.startswith("random.") \
                    and resolved != "random.Random":
                self.findings.append((
                    "L004", node.lineno,
                    f"module-level {resolved}() uses global unseeded "
                    "state; draw from a seeded random.Random instance",
                ))
        self.generic_visit(node)

    # -- L007: direct file mutation ----------------------------------------

    @staticmethod
    def _open_mode(node: ast.Call) -> str | None:
        """The mode argument of an ``open()`` call, when it's a literal."""
        mode_node: ast.expr | None = None
        if len(node.args) >= 2:
            mode_node = node.args[1]
        else:
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode_node = keyword.value
                    break
        if isinstance(mode_node, ast.Constant) \
                and isinstance(mode_node.value, str):
            return mode_node.value
        return None

    def _check_file_mutation(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = self._open_mode(node)
            if mode is not None and _WRITE_MODE_CHARS & set(mode):
                self.findings.append((
                    "L007", node.lineno,
                    f"open(..., {mode!r}) mutates a file outside "
                    "storage/durable; persist through the durable "
                    "engine so the write is crash-safe",
                ))
            return
        if self._resolve(node.func) == "os.write":
            self.findings.append((
                "L007", node.lineno,
                "os.write outside storage/durable; persist through "
                "the durable engine so the write is crash-safe",
            ))

    # -- L005: swallowed source faults -------------------------------------

    @staticmethod
    def _caught_names(type_node: ast.expr | None) -> list[str]:
        """Terminal exception names of an ``except`` clause."""
        if type_node is None:
            return []
        elements = (type_node.elts if isinstance(type_node, ast.Tuple)
                    else [type_node])
        names = []
        for element in elements:
            if isinstance(element, ast.Attribute):
                names.append(element.attr)
            elif isinstance(element, ast.Name):
                names.append(element.id)
        return names

    @staticmethod
    def _swallows(body: list[ast.stmt]) -> bool:
        return all(
            isinstance(statement, ast.Pass)
            or (isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
                and statement.value.value is Ellipsis)
            for statement in body
        )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        caught = [name for name in self._caught_names(node.type)
                  if name in _SOURCE_ERRORS]
        if caught and self._swallows(node.body):
            self.findings.append((
                "L005", node.lineno,
                f"except {caught[0]}: pass swallows a source fault; "
                "retry it, feed the breaker, or flag the result "
                "degraded",
            ))
        self.generic_visit(node)

def noqa_suppresses(line: str, code: str) -> bool:
    """Does a ``# noqa`` / ``# noqa: CODE,...`` on *line* cover *code*?"""
    match = _NOQA_RE.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True
    listed = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return code.upper() in listed


def lint_source(source: str, path: str = "<string>") -> list[Diagnostic]:
    """Run every lint rule over one module's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Diagnostic(
            "L000", Severity.ERROR, f"syntax error: {exc.msg}",
            file=path, line=exc.lineno or 1,
        )]
    visitor = _Visitor(path)
    visitor.visit(tree)
    lines = source.splitlines()
    diagnostics = []
    for code, lineno, message in visitor.findings:
        line_text = lines[lineno - 1] if 0 < lineno <= len(lines) else ""
        if noqa_suppresses(line_text, code):
            continue
        diagnostics.append(Diagnostic(
            code, Severity.ERROR, message, file=path, line=lineno,
        ))
    return diagnostics


def lint_file(path: str) -> list[Diagnostic]:
    with open(path, encoding="utf-8") as handle:
        return lint_source(handle.read(), path)


def lint_paths(paths: list[str]) -> list[Diagnostic]:
    """Lint every ``*.py`` under *paths*, file by file."""
    diagnostics: list[Diagnostic] = []
    for file_path in python_files(paths):
        diagnostics.extend(lint_file(file_path))
    return diagnostics


def python_files(paths: list[str]) -> list[str]:
    """Every ``*.py`` under *paths* (files or directories), sorted."""
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs
                if d != "__pycache__" and not d.endswith(".egg-info")
            )
            files.extend(os.path.join(root, name)
                         for name in sorted(names)
                         if name.endswith(".py"))
    return files
