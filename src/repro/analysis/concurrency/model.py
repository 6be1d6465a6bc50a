"""Per-module AST extraction for the whole-program concurrency analyzer.

One :class:`ModuleModel` is the complete concurrency-relevant summary of
a single Python source file: every function with its calls, lock
acquisitions, and writes to ``self`` state (each annotated with the lock
set held at that point), every class with its methods, base names, lock
attributes, and attribute→class bindings, plus the module's global
locks.  :mod:`repro.analysis.concurrency.program` links the
per-module models into one program and runs the interprocedural passes;
nothing in this module looks beyond a single file.

Lock identity is kept *raw* here — ``("selfattr", ClassQual, attr)``,
``("global", module, name)``, ``("local", funcqual, var)``, or
``("attr", attr)`` for an unresolvable receiver — and canonicalized at
link time, when the creating class of an inherited ``self._lock`` can be
found.  A ``with`` item counts as a lock guard when its context
expression terminates in a name containing ``lock`` (the repo-wide
naming convention) or resolves to a binding
created from ``threading.Lock()`` / ``threading.RLock()``; explicit
``.acquire()`` / ``.release()`` pairs are modelled the same way so
fixture code (and pre-L002 idioms) analyze correctly.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

#: Raw lock token shapes (canonicalized by the linker).
RawLock = tuple

#: Method-call names never linked by bare-name (duck) matching: they
#: collide with builtin container/concurrency APIs and would drag huge
#: false subgraphs into the call graph.  Typed receivers (``self``,
#: attributes with known classes, calls with known return classes)
#: bypass this list entirely.
DUCK_DENYLIST = frozenset({
    "add", "append", "appendleft", "cancel", "clear", "copy", "count",
    "decode", "difference", "discard", "done", "encode", "endswith",
    "extend", "findall", "finditer", "format", "get", "get_nowait",
    "group", "index", "insert", "intersection", "items", "join", "keys",
    "locked", "lower", "match", "move_to_end", "pop", "popitem",
    "popleft", "put", "read", "remove", "replace", "result", "search",
    "set", "setdefault", "shutdown", "sort", "split", "startswith",
    "strip", "sub", "submit", "union", "update", "upper", "values",
    "wait", "write",
})

#: Method names that mutate a builtin container in place: calling one
#: on ``self.<attr>`` is a write to that attribute's state.
CONTAINER_MUTATORS = frozenset({
    "add", "append", "clear", "discard", "extend", "insert",
    "move_to_end", "pop", "popitem", "remove", "setdefault", "sort",
    "update",
})

#: Callable names that block or charge virtual latency: holding a lock
#: across one of these serializes unrelated work behind the lock (and,
#: for virtual-time charges, inflates every waiter's latency) — CONC202.
BLOCKING_CALLS = frozenset({
    "advance", "fetch", "fetch_all", "fetch_many", "join", "result",
    "scan_keys", "sleep", "wait",
})


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    name: str                     # terminal callable name
    raw: tuple                    # resolution hint (see resolve_call)
    receiver: tuple | None        # receiver typing hint, or None
    line: int
    held: tuple[RawLock, ...]     # raw lock tokens held at the call
    context_manager: bool = False  # appeared as a `with` item


@dataclass(frozen=True)
class Acquire:
    """One lock acquisition (``with`` guard entry or ``.acquire()``)."""

    lock: RawLock
    line: int
    held: tuple[RawLock, ...]     # locks already held when acquiring


@dataclass(frozen=True)
class Write:
    """One write to state rooted at ``self``."""

    path: str                     # target below self ("stats.retries")
    line: int
    held: tuple[RawLock, ...]


@dataclass
class FunctionModel:
    """Concurrency summary of one function / method / closure."""

    qualname: str
    module: str
    cls: str | None               # enclosing class qualname, or None
    name: str
    line: int
    nested: bool                  # defined inside another function
    calls: list[CallSite] = field(default_factory=list)
    acquires: list[Acquire] = field(default_factory=list)
    writes: list[Write] = field(default_factory=list)
    returns_classes: set[str] = field(default_factory=set)  # raw names
    local_instances: dict[str, set[str]] = field(default_factory=dict)


@dataclass
class ClassModel:
    """Concurrency summary of one class definition."""

    qualname: str
    module: str
    name: str
    line: int
    bases: list[str] = field(default_factory=list)   # raw base names
    methods: dict[str, str] = field(default_factory=dict)
    #: attr → raw class names assigned to ``self.attr`` (``self.x = C()``)
    attr_classes: dict[str, set[str]] = field(default_factory=dict)
    #: lock attr → reentrant (``self.x = threading.RLock()`` → True)
    lock_attrs: dict[str, bool] = field(default_factory=dict)


@dataclass
class ModuleModel:
    """Everything the linker needs to know about one source file."""

    name: str
    path: str
    functions: dict[str, FunctionModel] = field(default_factory=dict)
    classes: dict[str, ClassModel] = field(default_factory=dict)
    global_locks: dict[str, bool] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
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


def _terminal_attr(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _render(node: ast.expr) -> str:
    """Compact dotted rendering of a name/attribute chain."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    elif isinstance(current, ast.Call):
        parts.append(f"{_render(current.func)}()")
    else:
        parts.append("<expr>")
    return ".".join(reversed(parts))


def _is_threading_lock_call(node: ast.expr,
                            imports: dict[str, str],
                            from_imports: dict[str, tuple[str, str]],
                            ) -> bool | None:
    """True/False = Lock()/RLock() reentrancy; None = not a lock call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if imports.get(func.value.id) == "threading":
            name = func.attr
    elif isinstance(func, ast.Name):
        target = from_imports.get(func.id)
        if target is not None and target[0] == "threading":
            name = target[1]
    if name == "Lock":
        return False
    if name == "RLock":
        return True
    return None


class _ModuleVisitor(ast.NodeVisitor):
    """One pass over a module's AST building its :class:`ModuleModel`."""

    def __init__(self, model: ModuleModel) -> None:
        self.model = model
        self.class_stack: list[ClassModel] = []
        self.func_stack: list[FunctionModel] = []
        self.held: list[RawLock] = []

    # -- helpers -----------------------------------------------------------

    @property
    def _function(self) -> FunctionModel | None:
        return self.func_stack[-1] if self.func_stack else None

    def _held_tuple(self) -> tuple[RawLock, ...]:
        return tuple(self.held)

    def _class_qual(self) -> str | None:
        return self.class_stack[-1].qualname if self.class_stack else None

    def _qualname(self, name: str) -> str:
        parts = [self.model.name]
        if self.func_stack:
            parts.append(self.func_stack[-1].qualname
                         [len(self.model.name) + 1:])
            parts.append(f"<locals>.{name}")
            return ".".join(parts)
        if self.class_stack:
            parts.append(self.class_stack[-1].qualname
                         [len(self.model.name) + 1:])
        parts.append(name)
        return ".".join(parts)

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.model.imports[alias.asname or alias.name] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None:
            return
        for alias in node.names:
            self.model.from_imports[alias.asname or alias.name] = (
                node.module, alias.name,
            )

    # -- definitions -------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = self._qualname(node.name)
        cls = ClassModel(
            qualname=qual, module=self.model.name, name=node.name,
            line=node.lineno,
            bases=[_render(base) for base in node.bases],
        )
        self.model.classes[qual] = cls
        self.class_stack.append(cls)
        saved_held, self.held = self.held, []
        for statement in node.body:
            self.visit(statement)
        self.held = saved_held
        self.class_stack.pop()

    def _visit_function(self, node) -> None:
        qual = self._qualname(node.name)
        fn = FunctionModel(
            qualname=qual, module=self.model.name,
            cls=self._class_qual() if not self.func_stack else None,
            name=node.name, line=node.lineno,
            nested=bool(self.func_stack),
        )
        self.model.functions[qual] = fn
        if self.class_stack and not fn.nested:
            self.class_stack[-1].methods[node.name] = qual
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.func_stack.append(fn)
        # A lock held by a caller is invisible at runtime inside a
        # nested def executed later; reset the held stack at the
        # function boundary.
        saved_held, self.held = self.held, []
        for statement in node.body:
            self.visit(statement)
        self.held = saved_held
        self.func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # A lambda body can call (never write); model it as a nested
        # function so its calls run later, outside the definer's locks.
        qual = self._qualname(f"<lambda:{node.lineno}>")
        fn = FunctionModel(
            qualname=qual, module=self.model.name, cls=None,
            name="<lambda>", line=node.lineno, nested=True,
        )
        self.model.functions[qual] = fn
        self.func_stack.append(fn)
        saved_held, self.held = self.held, []
        self.visit(node.body)
        self.held = saved_held
        self.func_stack.pop()

    # -- lock scopes -------------------------------------------------------

    def _lock_token(self, expr: ast.expr) -> RawLock | None:
        """Raw lock token of *expr*, or None if it is not lock-like."""
        if isinstance(expr, ast.Attribute):
            attr = expr.attr
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                if "lock" in attr.lower() or (
                        self.class_stack
                        and attr in self.class_stack[-1].lock_attrs):
                    cls = self._class_qual()
                    if cls is not None:
                        return ("selfattr", cls, attr)
                    return ("attr", attr)
                return None
            if "lock" in attr.lower():
                return ("attr", attr)
            return None
        if isinstance(expr, ast.Name):
            name = expr.id
            fn = self._function
            if fn is not None and name in fn.local_instances.get(
                    "<locks>", set()):
                return ("local", fn.qualname, name)
            if name in self.model.global_locks:
                return ("global", self.model.name, name)
            if "lock" in name.lower():
                if fn is not None:
                    return ("local", fn.qualname, name)
                return ("global", self.model.name, name)
        return None

    def _handle_with(self, node) -> None:
        acquired: list[RawLock] = []
        for item in node.items:
            token = self._lock_token(item.context_expr)
            if token is not None:
                fn = self._function
                if fn is not None:
                    fn.acquires.append(Acquire(
                        token, item.context_expr.lineno,
                        self._held_tuple(),
                    ))
                self.held.append(token)
                acquired.append(token)
            else:
                self.visit(item.context_expr)
                if isinstance(item.context_expr, ast.Call):
                    self._record_call(item.context_expr,
                                      context_manager=True)
                if item.optional_vars is not None:
                    self.visit(item.optional_vars)
        for statement in node.body:
            self.visit(statement)
        for _ in acquired:
            self.held.pop()

    visit_With = _handle_with
    visit_AsyncWith = _handle_with

    # -- calls -------------------------------------------------------------

    def _receiver_hint(self, expr: ast.expr) -> tuple | None:
        if isinstance(expr, ast.Constant):
            # `"".join(...)` — a literal receiver is never a thread,
            # lock, or source; keeps str.join out of BLOCKING_CALLS.
            return ("const",)
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return ("self",)
            return ("local", expr.id)
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self":
            return ("selfattr", expr.attr)
        if isinstance(expr, ast.Call):
            raw = self._callee_raw(expr.func)
            if raw is not None:
                return ("call", raw, self._receiver_hint(expr.func.value)
                        if isinstance(expr.func, ast.Attribute) else None)
        return None

    def _callee_raw(self, func: ast.expr) -> tuple | None:
        if isinstance(func, ast.Name):
            return ("name", func.id)
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                if value.id == "self":
                    return ("selfmethod", func.attr)
                if value.id in self.model.imports:
                    return ("mod", self.model.imports[value.id],
                            func.attr)
            return ("method", func.attr)
        return None

    def _record_call(self, node: ast.Call,
                     context_manager: bool = False) -> None:
        fn = self._function
        if fn is None:
            return
        raw = self._callee_raw(node.func)
        if raw is None:
            return
        name = raw[-1]
        receiver = None
        if isinstance(node.func, ast.Attribute):
            receiver = self._receiver_hint(node.func.value)
        elif raw[0] == "selfmethod":
            receiver = ("self",)
        fn.calls.append(CallSite(
            name=name, raw=raw, receiver=receiver, line=node.lineno,
            held=self._held_tuple(), context_manager=context_manager,
        ))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # Explicit acquire/release pairs move the held stack.
        if isinstance(func, ast.Attribute) \
                and func.attr in ("acquire", "release"):
            token = self._lock_token(func.value)
            if token is None and isinstance(func.value,
                                            (ast.Name, ast.Attribute)):
                rendered = _terminal_attr(func.value)
                if rendered is not None:
                    token = ("attr", rendered)
            if token is not None:
                fn = self._function
                if func.attr == "acquire":
                    if fn is not None:
                        fn.acquires.append(Acquire(
                            token, node.lineno, self._held_tuple(),
                        ))
                    self.held.append(token)
                elif token in self.held:
                    self.held.remove(token)
                self.generic_visit(node)
                return
        if isinstance(func, ast.Attribute) \
                and func.attr in CONTAINER_MUTATORS:
            self._record_write(func.value, node.lineno)
        self._record_call(node)
        self.generic_visit(node)

    # -- assignments / writes ----------------------------------------------

    def _note_binding(self, target: ast.expr, value: ast.expr) -> None:
        """Track lock creations and direct instantiations."""
        reentrant = _is_threading_lock_call(
            value, self.model.imports, self.model.from_imports,
        )
        fn = self._function
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self" and self.class_stack:
            cls = self.class_stack[-1]
            if reentrant is not None:
                cls.lock_attrs[target.attr] = reentrant
            elif isinstance(value, ast.Call):
                raw = self._callee_raw(value.func)
                if raw is not None and raw[0] == "name":
                    cls.attr_classes.setdefault(
                        target.attr, set()).add(raw[1])
        elif isinstance(target, ast.Name):
            if fn is None:
                if reentrant is not None:
                    self.model.global_locks[target.id] = reentrant
            else:
                if reentrant is not None:
                    fn.local_instances.setdefault(
                        "<locks>", set()).add(target.id)
                elif isinstance(value, ast.Call):
                    raw = self._callee_raw(value.func)
                    if raw is not None and raw[0] == "name":
                        fn.local_instances.setdefault(
                            target.id, set()).add(raw[1])
                elif isinstance(value, ast.Name):
                    known = fn.local_instances.get(value.id)
                    if known:
                        fn.local_instances.setdefault(
                            target.id, set()).update(known)

    def _self_path(self, target: ast.expr) -> str | None:
        """Dotted path of *target* below ``self`` (subscripts dropped:
        ``self.a[k].b`` is ``a.b``), or None if not rooted at ``self``."""
        parts: list[str] = []
        current = target
        while isinstance(current, (ast.Attribute, ast.Subscript)):
            if isinstance(current, ast.Attribute):
                parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name) and current.id == "self" and parts:
            return ".".join(reversed(parts))
        return None

    def _record_write(self, target: ast.expr, line: int) -> None:
        fn = self._function
        if fn is None:
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_write(element, line)
            return
        path = self._self_path(target)
        if path is None:
            return  # only state reachable through self can be shared
        fn.writes.append(Write(path, line, self._held_tuple()))

    def _handle_assign(self, node) -> None:
        if node.value is None:
            return  # bare annotation: `self.x: int`
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        for target in targets:
            if not isinstance(node, ast.AugAssign):
                self._note_binding(target, node.value)
            self._record_write(target, node.lineno)
        self.visit(node.value)

    visit_Assign = _handle_assign
    visit_AugAssign = _handle_assign
    visit_AnnAssign = _handle_assign

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_write(target, node.lineno)
        self.generic_visit(node)

    # -- returns -----------------------------------------------------------

    def visit_Return(self, node: ast.Return) -> None:
        fn = self._function
        if fn is not None and node.value is not None:
            value = node.value
            if isinstance(value, ast.Name):
                known = fn.local_instances.get(value.id)
                if known:
                    fn.returns_classes.update(known)
            elif isinstance(value, ast.Call):
                raw = self._callee_raw(value.func)
                if raw is not None and raw[0] == "name":
                    fn.returns_classes.add(raw[1])
        self.generic_visit(node)


def extract_module(path: str, source: str,
                   module: str | None = None) -> ModuleModel:
    """Build the :class:`ModuleModel` of one source file."""
    name = module or module_name_for(path)
    model = ModuleModel(name=name, path=path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        model.syntax_error = (exc.lineno or 1, exc.msg or "syntax error")
        return model
    # Two passes: bindings (lock attrs, global locks) first, so that
    # `with self.x:` guards see lock assignments that appear later in
    # the file.
    binding_visitor = _ModuleVisitor(model)
    binding_visitor.visit(tree)
    full = ModuleModel(name=name, path=path,
                       global_locks=dict(model.global_locks))
    lock_attrs = {cls.qualname: dict(cls.lock_attrs)
                  for cls in model.classes.values()}
    visitor = _ModuleVisitor(full)
    visitor.visit(tree)
    for qual, attrs in lock_attrs.items():
        if qual in full.classes:
            merged = dict(attrs)
            merged.update(full.classes[qual].lock_attrs)
            full.classes[qual].lock_attrs = merged
    return full
