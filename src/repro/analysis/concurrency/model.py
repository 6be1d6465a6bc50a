"""Per-class AST extraction for ``repro race``.

One :class:`ModuleModel` summarizes the classes of one source file:
each class with its base names (resolved through the file's imports),
the locks it creates on ``self`` and its methods; each method with its
writes to ``self`` state, its ``self.<method>()`` calls, its lock
acquisitions and its calls to a :data:`BLOCKING_CALLS` name — every one
annotated with the locks held at that point.  Nothing here looks beyond
a single file, and nothing outside a class body is modelled.

A ``with`` item is a lock acquisition when it is ``self.<attr>`` and
the attribute's name contains ``lock`` (the repo-wide convention) or
the class assigns it ``threading.Lock()`` / ``RLock()``, or when it is
any other name or attribute whose last component contains ``lock``
(``with session.lock:``).  Rule L002 keeps bare ``.acquire()`` out of
``src/``, so ``with`` is the only acquisition modelled.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

#: A lock as written where it is taken: ``("self", attr)`` for
#: ``self.<attr>``, ``("other", name)`` for anything else.
RawLock = tuple[str, str]

#: Method names that mutate a builtin container in place: calling one
#: on ``self.<attr>`` is a write to that attribute's state.
CONTAINER_MUTATORS = frozenset({
    "add", "append", "clear", "discard", "extend", "insert",
    "move_to_end", "pop", "popitem", "remove", "setdefault", "sort",
    "update",
})

#: Callable names that block, charge virtual latency or render a
#: viewport: holding a lock across one of these serializes unrelated
#: work behind the lock (and, for virtual-time charges, inflates every
#: waiter's latency) — CONC202.  Matched by name, whatever the receiver.
BLOCKING_CALLS = frozenset({
    "advance", "fetch", "fetch_all", "fetch_all_resilient", "fetch_many",
    "join", "render_full", "render_viewport", "result", "sleep", "wait",
})


@dataclass(frozen=True)
class Write:
    """One write to state rooted at ``self``."""

    path: str                     # target below self ("stats.retries")
    line: int
    held: tuple[RawLock, ...]


@dataclass(frozen=True)
class Acquire:
    """One lock acquisition (a ``with`` item)."""

    lock: RawLock
    line: int
    held: tuple[RawLock, ...]     # locks already held when acquiring


@dataclass(frozen=True)
class Call:
    """A ``self.<name>()`` call, or a call of a BLOCKING_CALLS name."""

    name: str
    line: int
    held: tuple[RawLock, ...]
    on_self: bool                 # resolved through the class chain


@dataclass
class MethodModel:
    """Concurrency summary of one method (nested defs folded in)."""

    qualname: str
    cls: str                      # defining class qualname
    name: str
    path: str
    writes: list[Write] = field(default_factory=list)
    acquires: list[Acquire] = field(default_factory=list)
    calls: list[Call] = field(default_factory=list)


@dataclass
class ClassModel:
    """Concurrency summary of one class definition."""

    qualname: str
    module: str
    name: str
    #: dotted base names, an imported head replaced by what it names
    bases: list[str] = field(default_factory=list)
    methods: dict[str, MethodModel] = field(default_factory=dict)
    #: lock attr → reentrant (``self.x = threading.RLock()`` → True)
    lock_attrs: dict[str, bool] = field(default_factory=dict)


@dataclass
class ModuleModel:
    """The classes of one source file."""

    name: str
    path: str
    classes: dict[str, ClassModel] = field(default_factory=dict)
    syntax_error: tuple[int, str] | None = None


def module_name_for(path: str) -> str:
    """Dotted module name of *path* (rooted at a ``src/`` component)."""
    normalized = path.replace(os.sep, "/")
    parts = [p for p in normalized.split("/") if p not in ("", ".")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<module>"


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _dotted(node: ast.expr, imported: dict[str, str]) -> str | None:
    """``a.b.c`` for a name/attribute chain, head resolved by import."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(imported.get(node.id, node.id))
    return ".".join(reversed(parts))


def _self_path(target: ast.expr) -> str | None:
    """Dotted path of *target* below ``self`` (subscripts dropped:
    ``self.a[k].b`` is ``a.b``), or None if not rooted at ``self``."""
    parts: list[str] = []
    while isinstance(target, (ast.Attribute, ast.Subscript)):
        if isinstance(target, ast.Attribute):
            parts.append(target.attr)
        target = target.value
    if _is_self(target) and parts:
        return ".".join(reversed(parts))
    return None


class _MethodVisitor(ast.NodeVisitor):
    """One pass over a method body filling its :class:`MethodModel`."""

    def __init__(self, method: MethodModel, lock_attrs: dict) -> None:
        self.method = method
        self.lock_attrs = lock_attrs
        self.held: list[RawLock] = []

    def _lock_token(self, expr: ast.expr) -> RawLock | None:
        if isinstance(expr, ast.Attribute) and _is_self(expr.value):
            if "lock" in expr.attr.lower() or expr.attr in self.lock_attrs:
                return ("self", expr.attr)
            return None
        if isinstance(expr, ast.Attribute):
            name = expr.attr
        elif isinstance(expr, ast.Name):
            name = expr.id
        else:
            return None
        return ("other", name) if "lock" in name.lower() else None

    def visit_With(self, node: ast.With | ast.AsyncWith) -> None:
        before = len(self.held)
        for item in node.items:
            token = self._lock_token(item.context_expr)
            if token is None:
                self.visit(item)
                continue
            self.method.acquires.append(Acquire(
                token, item.context_expr.lineno, tuple(self.held)))
            self.held.append(token)
        for statement in node.body:
            self.visit(statement)
        del self.held[before:]

    visit_AsyncWith = visit_With

    def _visit_deferred(self, node: ast.AST) -> None:
        # A nested def or lambda runs later, outside the locks held
        # where it is written; what it does still counts as the
        # method's.
        saved, self.held = self.held, []
        self.generic_visit(node)
        self.held = saved

    visit_FunctionDef = _visit_deferred
    visit_AsyncFunctionDef = _visit_deferred
    visit_Lambda = _visit_deferred

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # another class's `self`

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name, on_self, literal = None, False, False
        if isinstance(func, ast.Attribute):
            if func.attr in CONTAINER_MUTATORS:
                self._record_write(func.value, node.lineno)
            name, on_self = func.attr, _is_self(func.value)
            # `"; ".join(...)` is a string operation, not a wait.
            literal = isinstance(func.value, ast.Constant)
        elif isinstance(func, ast.Name):
            name = func.id
        if on_self or (name in BLOCKING_CALLS and not literal):
            self.method.calls.append(Call(
                name, node.lineno, tuple(self.held), on_self))
        self.generic_visit(node)

    def _record_write(self, target: ast.expr, line: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_write(element, line)
            return
        path = _self_path(target)
        if path is not None:  # only state reachable through self
            self.method.writes.append(
                Write(path, line, tuple(self.held)))

    def _visit_assign(self, node) -> None:
        if isinstance(node, ast.AnnAssign) and node.value is None:
            return  # bare annotation: `self.x: int`
        for target in getattr(node, "targets", None) or [node.target]:
            self._record_write(target, node.lineno)
        self.generic_visit(node)

    visit_Assign = _visit_assign
    visit_AugAssign = _visit_assign
    visit_AnnAssign = _visit_assign
    visit_Delete = _visit_assign


def _collect_classes(model: ModuleModel, body: list[ast.stmt],
                     scope: str, imported: dict[str, str]) -> None:
    for node in body:
        if not isinstance(node, ast.ClassDef):
            continue
        cls = ClassModel(
            qualname=f"{scope}.{node.name}", module=model.name,
            name=node.name,
            bases=[dotted for base in node.bases
                   if (dotted := _dotted(base, imported)) is not None],
        )
        model.classes[cls.qualname] = cls
        # Lock creations first, so `with self.<attr>:` is a guard even
        # where the attribute's name does not say so.
        for sub in ast.walk(node):
            if not isinstance(sub, (ast.Assign, ast.AnnAssign)) \
                    or not isinstance(sub.value, ast.Call):
                continue
            factory = _dotted(sub.value.func, imported)
            if factory not in ("threading.Lock", "threading.RLock"):
                continue
            for target in getattr(sub, "targets", None) or [sub.target]:
                if isinstance(target, ast.Attribute) \
                        and _is_self(target.value):
                    cls.lock_attrs[target.attr] = factory.endswith("RLock")
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = MethodModel(f"{cls.qualname}.{member.name}",
                                     cls.qualname, member.name, model.path)
                visitor = _MethodVisitor(method, cls.lock_attrs)
                for statement in member.body:
                    visitor.visit(statement)
                cls.methods[member.name] = method
        _collect_classes(model, node.body, cls.qualname, imported)


def extract_module(path: str, source: str) -> ModuleModel:
    """Build the :class:`ModuleModel` of one source file."""
    model = ModuleModel(name=module_name_for(path), path=path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        model.syntax_error = (exc.lineno or 1, exc.msg or "syntax error")
        return model
    #: local name → the dotted name it was imported as
    imported: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.partition(".")[0]
                imported[alias.asname or head] = \
                    alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                imported[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    _collect_classes(model, tree.body, model.name, imported)
    return model
