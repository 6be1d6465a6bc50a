"""Whole-program linking for the concurrency analyzer.

Takes the per-module :class:`~repro.analysis.concurrency.model.ModuleModel`
summaries and builds one :class:`Program`:

* **call graph** — each :class:`CallSite` resolved to concrete function
  qualnames.  Resolution tries, in order: ``self``-method lookup through
  the class chain (including inherited methods), module-local names,
  ``from``-imports and module-attribute calls, typed receivers
  (``self.breakers = BreakerBoard(...)`` makes ``self.breakers.breaker``
  a ``BreakerBoard.breaker`` call; ``metrics.counter(n).inc()`` resolves
  through ``counter``'s inferred return class), and finally duck typing
  by bare method name — gated by
  :data:`~repro.analysis.concurrency.model.DUCK_DENYLIST` so builtin
  container verbs don't drag the whole program into every edge.
* **shared classes** — a class is shared when it, or a class it
  inherits from, creates a ``threading.Lock`` / ``RLock`` on ``self``:
  owning a lock is how a class declares that its instances are used
  from several threads.  Every ``self`` write in a shared class's
  methods (``__init__`` excepted) is a checked write.
* **lock identity** — raw tokens canonicalized to stable ids:
  ``Owner.attr`` for instance locks (``Owner`` = the class in the
  inheritance chain whose ``__init__`` created the lock),
  ``module.NAME`` for module globals, ``func.var`` for locals, and
  ``*.attr`` for unresolvable bare attributes.
* **entry-held sets** — a monotone fixpoint of which locks can already
  be held when each function is entered (union over its call sites of
  the caller's entry-held set plus the site's intra-held set), and its
  must-held twin (intersection), which is what guards a checked write.
* **lock-order graph** — for every acquisition of ``B`` with held set
  ``H``, edges ``A → B`` for each ``A ∈ H``.  Cycles (Tarjan SCCs) are
  potential deadlocks; a self-re-acquisition of a non-reentrant lock is
  a self-deadlock.
* **blocking closure** — which functions (transitively) sleep, wait,
  join, fetch, or charge virtual latency.

The rule layer (:mod:`repro.analysis.concurrency.analyzer`) turns these
artifacts into CONC diagnostics; this module computes, it doesn't judge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.concurrency.model import (
    BLOCKING_CALLS,
    DUCK_DENYLIST,
    CallSite,
    ClassModel,
    FunctionModel,
    ModuleModel,
    Write,
)


@dataclass(frozen=True)
class LockInfo:
    """One canonical lock: stable id plus reentrancy."""

    lock_id: str
    reentrant: bool


@dataclass(frozen=True)
class OrderEdge:
    """Witness that ``held`` was held while acquiring ``acquired``."""

    held: str
    acquired: str
    function: str
    file: str
    line: int


@dataclass
class Program:
    """Linked whole-program concurrency model."""

    modules: dict[str, ModuleModel] = field(default_factory=dict)
    functions: dict[str, FunctionModel] = field(default_factory=dict)
    classes: dict[str, ClassModel] = field(default_factory=dict)
    #: call graph: caller qualname → callee qualnames
    calls: dict[str, set[str]] = field(default_factory=dict)
    #: resolved targets per CallSite (keyed by object identity)
    site_targets: dict[int, tuple[str, ...]] = field(default_factory=dict)
    #: qualnames of classes with a lock in their inheritance chain
    shared_classes: set[str] = field(default_factory=set)
    #: every checked write: (method qualname, write) in shared classes
    shared_writes: list[tuple[str, Write]] = field(default_factory=list)
    #: qualname → locks possibly held on entry (may-union; feeds the
    #: lock-order graph, where any potential order matters)
    entry_held: dict[str, frozenset[str]] = field(default_factory=dict)
    #: qualname → locks held on EVERY path into the function
    #: (must-intersection; feeds guardedness — a write is protected
    #: only if some lock dominates all paths to it)
    entry_held_must: dict[str, frozenset[str]] = \
        field(default_factory=dict)
    #: canonical lock id → LockInfo
    locks: dict[str, LockInfo] = field(default_factory=dict)
    #: lock-order edges, first witness per (held, acquired) pair
    order_edges: dict[tuple[str, str], OrderEdge] = \
        field(default_factory=dict)
    #: self-re-acquisitions of non-reentrant locks
    self_deadlocks: list[OrderEdge] = field(default_factory=list)
    #: functions that (transitively) block
    blocking: set[str] = field(default_factory=set)

    def path_of(self, fn: FunctionModel) -> str:
        module = self.modules.get(fn.module)
        return module.path if module is not None else fn.module

    # -- class chain -------------------------------------------------------

    def class_by_name(self, name: str,
                      module: str | None = None) -> ClassModel | None:
        """A class called *name*, preferring *module*'s own imports."""
        if module is not None:
            found = self.classes.get(f"{module}.{name}")
            if found is not None:
                return found
            mod = self.modules.get(module)
            if mod is not None:
                target = mod.from_imports.get(name)
                if target is not None:
                    found = self.classes.get(f"{target[0]}.{target[1]}")
                    if found is not None:
                        return found
        for cls in self.classes.values():
            if cls.name == name:
                return cls
        return None

    def class_chain(self, cls: ClassModel) -> list[ClassModel]:
        """*cls* plus its linkable base classes, nearest first."""
        chain: list[ClassModel] = []
        seen: set[str] = set()
        frontier = [cls]
        while frontier:
            current = frontier.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            chain.append(current)
            for base in current.bases:
                base_cls = self.class_by_name(base.split(".")[-1],
                                              current.module)
                if base_cls is not None:
                    frontier.append(base_cls)
        return chain

    def method_in_chain(self, cls: ClassModel, method: str) -> str | None:
        for link_cls in self.class_chain(cls):
            qual = link_cls.methods.get(method)
            if qual is not None:
                return qual
        return None

    # -- lock canonicalization ---------------------------------------------

    def canonical_lock(self, raw: tuple) -> LockInfo:
        """Stable identity (and reentrancy) of a raw lock token."""
        shape = raw[0]
        if shape == "selfattr":
            _, class_qual, attr = raw
            cls = self.classes.get(class_qual)
            if cls is not None:
                for link_cls in self.class_chain(cls):
                    if attr in link_cls.lock_attrs:
                        return self._intern(
                            f"{link_cls.qualname}.{attr}",
                            link_cls.lock_attrs[attr])
                return self._intern(f"{cls.qualname}.{attr}", False)
            return self._intern(f"{class_qual}.{attr}", False)
        if shape == "global":
            _, module, name = raw
            mod = self.modules.get(module)
            reentrant = bool(mod and mod.global_locks.get(name, False))
            return self._intern(f"{module}.{name}", reentrant)
        if shape == "local":
            _, func, name = raw
            return self._intern(f"{func}.{name}", False)
        return self._intern(f"*.{raw[-1]}", False)

    def _intern(self, lock_id: str, reentrant: bool) -> LockInfo:
        info = self.locks.get(lock_id)
        if info is None or (reentrant and not info.reentrant):
            info = LockInfo(lock_id, reentrant)
            self.locks[lock_id] = info
        return info

    def held_ids(self, raw_held: tuple) -> frozenset[str]:
        return frozenset(self.canonical_lock(token).lock_id
                         for token in raw_held)


class _Resolver:
    """Call-site → function-qualname resolution over a Program."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.by_simple: dict[str, list[str]] = {}
        self.methods_by_name: dict[str, list[str]] = {}
        for qual, fn in program.functions.items():
            self.by_simple.setdefault(fn.name, []).append(qual)
        for cls in program.classes.values():
            for method, mqual in cls.methods.items():
                self.methods_by_name.setdefault(method, []).append(mqual)

    def _classes_of_receiver(self, fn: FunctionModel,
                             receiver: tuple | None) -> list[ClassModel]:
        """Concrete classes a call receiver may be an instance of."""
        program = self.program
        if receiver is None:
            return []
        kind = receiver[0]
        names: set[str] = set()
        if kind == "self" and fn.cls is not None:
            cls = program.classes.get(fn.cls)
            return [cls] if cls is not None else []
        if kind == "local":
            names = set(fn.local_instances.get(receiver[1], ()))
        elif kind == "selfattr" and fn.cls is not None:
            cls = program.classes.get(fn.cls)
            if cls is not None:
                for link_cls in program.class_chain(cls):
                    names |= link_cls.attr_classes.get(receiver[1], set())
        elif kind == "call":
            # `metrics.counter(n).inc()` — type the outer receiver by
            # the inner call's inferred return classes.
            for target in self.resolve(fn, receiver[1], receiver[2]):
                callee = program.functions.get(target)
                if callee is not None:
                    names |= callee.returns_classes
            if receiver[1][0] == "name":
                cls = program.class_by_name(receiver[1][1], fn.module)
                if cls is not None:
                    names.add(cls.name)
        resolved = []
        for name in names:
            cls = program.class_by_name(name.split(".")[-1], fn.module)
            if cls is not None:
                resolved.append(cls)
        return resolved

    def resolve(self, fn: FunctionModel, raw: tuple,
                receiver: tuple | None) -> list[str]:
        program = self.program
        kind = raw[0]
        module = program.modules.get(fn.module)
        if kind == "selfmethod":
            if fn.cls is not None:
                cls = program.classes.get(fn.cls)
                if cls is not None:
                    found = program.method_in_chain(cls, raw[1])
                    return [found] if found is not None else []
            # `self.` inside a closure capturing self: duck-resolve.
            kind, raw, receiver = "method", ("method", raw[1]), None
        if kind == "name":
            name = raw[1]
            nested = f"{fn.qualname}.<locals>.{name}"
            if nested in program.functions:
                return [nested]
            local_qual = f"{fn.module}.{name}"
            if local_qual in program.functions:
                return [local_qual]
            if local_qual in program.classes:
                found = program.method_in_chain(
                    program.classes[local_qual], "__init__")
                return [found] if found is not None else []
            if module is not None:
                target = module.from_imports.get(name)
                if target is not None:
                    imported = f"{target[0]}.{target[1]}"
                    if imported in program.functions:
                        return [imported]
                    if imported in program.classes:
                        found = program.method_in_chain(
                            program.classes[imported], "__init__")
                        return [found] if found is not None else []
            return []
        if kind == "mod":
            imported = f"{raw[1]}.{raw[2]}"
            if imported in program.functions:
                return [imported]
            if imported in program.classes:
                found = program.method_in_chain(
                    program.classes[imported], "__init__")
                return [found] if found is not None else []
            return []
        if kind == "method":
            method = raw[1]
            typed = self._classes_of_receiver(fn, receiver)
            if typed:
                targets = []
                for cls in typed:
                    found = program.method_in_chain(cls, method)
                    if found is not None:
                        targets.append(found)
                if targets:
                    return targets
            if method in DUCK_DENYLIST:
                return []
            duck = list(self.methods_by_name.get(method, ()))
            if not duck:
                duck = [qual for qual in self.by_simple.get(method, ())
                        if not program.functions[qual].nested]
            return duck
        return []

    def resolve_site(self, fn: FunctionModel,
                     site: CallSite) -> tuple[str, ...]:
        program = self.program
        resolved = self.resolve(fn, site.raw, site.receiver)
        # Entering a call result as a context manager links the
        # returned class's __enter__/__exit__ (with tracer.span():).
        if site.context_manager:
            extra: list[str] = []
            for target in resolved:
                callee = program.functions.get(target)
                if callee is None:
                    continue
                for cname in callee.returns_classes:
                    cls = program.class_by_name(cname.split(".")[-1],
                                                callee.module)
                    if cls is None:
                        continue
                    for dunder in ("__enter__", "__exit__"):
                        found = program.method_in_chain(cls, dunder)
                        if found is not None:
                            extra.append(found)
            resolved = resolved + extra
        return tuple(sorted(set(resolved)))


def _link_calls(program: Program, resolver: _Resolver) -> None:
    for qual, fn in program.functions.items():
        out = program.calls.setdefault(qual, set())
        for site in fn.calls:
            targets = resolver.resolve_site(fn, site)
            program.site_targets[id(site)] = targets
            out.update(targets)


def _collect_shared(program: Program) -> None:
    """Lock-owning classes and the ``self`` writes in their methods."""
    for qual, cls in program.classes.items():
        if any(link_cls.lock_attrs
               for link_cls in program.class_chain(cls)):
            program.shared_classes.add(qual)
    for qual, fn in program.functions.items():
        # Exempt: __init__ (construction happens-before sharing) and
        # paths through a `_local*` attribute (threading.local state).
        if fn.cls in program.shared_classes and fn.name != "__init__":
            program.shared_writes.extend(
                (qual, write) for write in fn.writes
                if not any(part.startswith("_local")
                           for part in write.path.split(".")))


def _compute_entry_held(program: Program) -> None:
    """Fixpoint: locks that can be held when each function is entered."""
    held: dict[str, set[str]] = {qual: set() for qual in program.functions}
    changed = True
    while changed:
        changed = False
        for qual, fn in program.functions.items():
            base = held[qual]
            for site in fn.calls:
                site_held = program.held_ids(site.held) | base
                if not site_held:
                    continue
                for target in program.site_targets.get(id(site), ()):
                    if target in held and not site_held <= held[target]:
                        held[target] |= site_held
                        changed = True
    program.entry_held = {qual: frozenset(locks)
                          for qual, locks in held.items()}


def _compute_entry_held_must(program: Program) -> None:
    """Fixpoint: locks held on *every* path into each function.

    Roots start lock-free: public functions and methods (any thread
    may call them, holding nothing) and any function with no in-program
    caller (a callback, a dunder).  Everything else — a private helper
    somebody calls — starts at ⊤ (encoded as ``None``) and intersects
    over its call sites.  A function whose ``must`` set ends non-empty
    has a dominating guard: no matter which path reached it, that lock
    was held — which is what makes a bare write inside it safe.
    """
    must: dict[str, frozenset[str] | None] = \
        {qual: None for qual in program.functions}
    called: set[str] = set()
    for callees in program.calls.values():
        called |= callees
    for qual, fn in program.functions.items():
        private = fn.nested or (fn.name.startswith("_")
                                and not fn.name.endswith("__"))
        if not private or qual not in called:
            must[qual] = frozenset()
    changed = True
    while changed:
        changed = False
        for qual, fn in program.functions.items():
            base = must[qual]
            if base is None:
                continue
            for site in fn.calls:
                site_held = program.held_ids(site.held) | base
                for target in program.site_targets.get(id(site), ()):
                    if target not in must:
                        continue
                    current = must[target]
                    updated = (site_held if current is None
                               else current & site_held)
                    if updated != current:
                        must[target] = updated
                        changed = True
    program.entry_held_must = {
        qual: (value if value is not None else frozenset())
        for qual, value in must.items()
    }


def _build_order_graph(program: Program) -> None:
    """Lock-order edges from every acquisition's held context."""
    for qual, fn in program.functions.items():
        path = program.path_of(fn)
        outer = program.entry_held.get(qual, frozenset())
        for acquire in fn.acquires:
            acquired = program.canonical_lock(acquire.lock)
            context = program.held_ids(acquire.held) | outer
            if acquired.lock_id in context:
                if not acquired.reentrant:
                    program.self_deadlocks.append(OrderEdge(
                        acquired.lock_id, acquired.lock_id,
                        qual, path, acquire.line,
                    ))
                continue
            for held_id in sorted(context):
                key = (held_id, acquired.lock_id)
                if key not in program.order_edges:
                    program.order_edges[key] = OrderEdge(
                        held_id, acquired.lock_id, qual, path,
                        acquire.line,
                    )


def _compute_blocking(program: Program) -> None:
    """Functions that (transitively) reach a blocking call."""
    blocking: set[str] = set()
    for qual, fn in program.functions.items():
        for site in fn.calls:
            if site.name in BLOCKING_CALLS \
                    and site.receiver != ("const",) \
                    and not program.site_targets.get(id(site)):
                blocking.add(qual)
                break
    changed = True
    while changed:
        changed = False
        for qual in program.functions:
            if qual in blocking:
                continue
            if any(callee in blocking
                   for callee in program.calls.get(qual, ())):
                blocking.add(qual)
                changed = True
    program.blocking = blocking


def lock_cycles(program: Program) -> list[list[str]]:
    """Cycles in the lock-order graph (Tarjan SCCs of size > 1)."""
    graph: dict[str, set[str]] = {}
    for held, acquired in program.order_edges:
        graph.setdefault(held, set()).add(acquired)
        graph.setdefault(acquired, set())
    index_counter = [0]
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph[root])))]
        index[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            current, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = \
                        index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append(
                        (successor, iter(sorted(graph[successor]))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[current] = min(lowlink[current],
                                           index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return sccs


def link(modules: list[ModuleModel]) -> Program:
    """Link per-module models into one analyzed :class:`Program`."""
    program = Program()
    for module in modules:
        program.modules[module.name] = module
        program.functions.update(module.functions)
        program.classes.update(module.classes)
    resolver = _Resolver(program)
    _link_calls(program, resolver)
    _collect_shared(program)
    _compute_entry_held(program)
    _compute_entry_held_must(program)
    _build_order_graph(program)
    _compute_blocking(program)
    return program
