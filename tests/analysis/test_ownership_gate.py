"""The ownership gate must fail when the thread-safety promise is false.

``repro race`` (CONC101) treats a class that creates a lock as shared
and requires every ``self`` write in its methods to hold one.  These
tests attack that gate with the repo's own source: every lock guard
that protects a write is removed in turn (in memory — nothing is
written) and the analyzer must turn red, or prove a caller's lock
still covers the write; six hand-planted bugs in the classes
``docs/CONCURRENCY.md`` promises are caught by name; and the promise
itself (the doc's class table) is checked against the lock-creating
classes the analyzer sees.
"""

import ast
import re
from functools import lru_cache

from repro.analysis.concurrency.analyzer import analyze_modules
from repro.analysis.concurrency.model import extract_module
from repro.analysis.lint import python_files

DOC = "docs/CONCURRENCY.md"


@lru_cache(maxsize=1)
def tree():
    """(sources, module models) of ``src/``, extracted once."""
    sources = {}
    for path in python_files(["src"]):
        with open(path, encoding="utf-8") as handle:
            sources[path] = handle.read()
    models = {path: extract_module(path, text)
              for path, text in sources.items()}
    return sources, models


def analyze_with(path=None, mutated=None):
    """Analyze ``src/`` with *path*'s module rebuilt from *mutated*."""
    sources, models = tree()
    if path is not None:
        sources = {**sources, path: mutated}
        models = {**models, path: extract_module(path, mutated)}
    return analyze_modules(list(models.values()), sources)


def class_of(qualname):
    return qualname.rsplit(".", 1)[0]


def is_self_lock(item):
    expr = item.context_expr
    return (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self" and "lock" in expr.attr.lower())


def lock_blocks(method):
    """``with self.<lock>:`` statements of *method*, in source order."""
    blocks = [node for node in ast.walk(method)
              if isinstance(node, ast.With)
              and any(is_self_lock(item) for item in node.items)]
    return sorted(blocks, key=lambda node: node.lineno)


def find_method(module, cls_name, name):
    for node in ast.walk(module):
        if isinstance(node, ast.ClassDef) and node.name == cls_name:
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and member.name == name:
                    return member
    raise LookupError(f"{cls_name}.{name} not found")


class _Unwrap(ast.NodeTransformer):
    """Drop the lock guard of one ``with`` statement, keep its body."""

    def __init__(self, target):
        self.target = target

    def visit_With(self, node):
        if node is not self.target:
            return self.generic_visit(node)
        node.items = [item for item in node.items
                      if not is_self_lock(item)]
        return node if node.items else node.body


def unwrapped(path, cls_name, method, index):
    """Source of *path* with the index-th lock block of a method gone."""
    module = ast.parse(tree()[0][path])
    block = lock_blocks(find_method(module, cls_name, method))[index]
    return ast.unparse(_Unwrap(block).visit(module))


def with_statement(path, cls_name, method, statement):
    """Source of *path* with *statement* planted at the top of a method
    (after the docstring)."""
    module = ast.parse(tree()[0][path])
    target = find_method(module, cls_name, method)
    target.body.insert(0 if ast.get_docstring(target) is None else 1,
                       ast.parse(statement).body[0])
    return ast.unparse(ast.fix_missing_locations(module))


def conc101_classes(result):
    return {class_of(finding.key.split(":")[0])
            for finding in result.findings if finding.code == "CONC101"}


def guarded_blocks():
    """Every (path, class qualname, method, block index) whose lock
    block encloses a checked ``self`` write, per the analyzer itself."""
    program = analyze_with().program
    cases = []
    for qual in sorted({qual for qual, _ in program.shared_writes}):
        fn = program.methods[qual]
        path = fn.path
        lines = {write.line for owner, write in program.shared_writes
                 if owner == qual}
        module = ast.parse(tree()[0][path])
        cls_name = fn.cls.rsplit(".", 1)[-1]
        blocks = lock_blocks(find_method(module, cls_name, fn.name))
        for index, block in enumerate(blocks):
            if any(block.lineno <= line <= block.end_lineno
                   for line in lines):
                cases.append((path, fn.cls, fn.name, index))
    return cases


class TestMutationSuite:
    def test_every_guard_is_load_bearing(self):
        cases = guarded_blocks()
        assert len(cases) >= 50
        flagged, dominated, wrong = [], [], []
        for path, cls, method, index in cases:
            label = f"{cls}.{method}#{index}"
            result = analyze_with(
                path, unwrapped(path, cls.rsplit(".", 1)[-1], method,
                                index))
            if cls in conc101_classes(result):
                flagged.append(label)
            elif not result.findings:
                # Clean although the guard is gone: by the rule, some
                # lock still covers every write (an outer `with`, or
                # every caller's) — the unwrapped guard was re-entrant.
                dominated.append(label)
            else:
                wrong.append((label, [f.key for f in result.findings]))
        assert wrong == []
        assert len(flagged) + len(dominated) == len(cases)
        assert len(flagged) * 10 >= len(cases) * 9, dominated

    def test_dominated_guard_is_really_dominated(self):
        # The one shape the suite may call "dominated": an inner guard
        # whose only caller already holds the lock.  Unwrapping the
        # *caller's* guard as well must turn the gate red.
        source = """\
import threading

class Box:
    def __init__(self):
        self._lock = threading.RLock()
        self.items = []

    def put(self, item):
        with self._lock:
            self._store(item)

    def _store(self, item):
        with self._lock:
            self.items.append(item)
"""
        path = "src/repro/example_box.py"
        inner_gone = source.replace(
            "        with self._lock:\n            self.items",
            "        if True:\n            self.items")
        assert inner_gone != source
        models = [extract_module(path, inner_gone)]
        assert analyze_modules(models, {path: inner_gone}).findings == []
        both_gone = inner_gone.replace(
            "        with self._lock:\n            self._store",
            "        if True:\n            self._store")
        models = [extract_module(path, both_gone)]
        found = analyze_modules(models, {path: both_gone}).findings
        assert [f.key for f in found] == ["repro.example_box.Box._store:items"]


CACHE = "src/repro/core/query/cache.py"
SERVER = "src/repro/mobile/server.py"
SCHEDULER = "src/repro/sources/scheduler.py"
METRICS = "src/repro/obs/metrics.py"


class TestNamedPlants:
    """The six bugs of ISSUE 20's motivation; the entry-reachability
    analyzer this rule replaced caught the first two only."""

    def check(self, path, mutated, expected_key):
        result = analyze_with(path, mutated)
        assert {f.key for f in result.findings
                if f.code == "CONC101"} == {expected_key}

    def test_counter_inc_unlocked(self):
        self.check(METRICS, unwrapped(METRICS, "Counter", "inc", 0),
                   "repro.obs.metrics.Counter.inc:value")

    def test_scheduler_note_bare_write(self):
        self.check(
            SCHEDULER,
            with_statement(SCHEDULER, "FetchScheduler", "_note",
                           "self.last_stat = stat"),
            "repro.sources.scheduler.FetchScheduler._note:last_stat")

    def test_cache_lookup_touch_outside_lock(self):
        # A hit marking its entry recently used, unlocked: lookup's
        # lock also covered its private helper _restamp.
        result = analyze_with(
            CACHE, unwrapped(CACHE, "SemanticCache", "lookup", 0))
        prefix = "repro.core.query.cache.SemanticCache."
        assert {f.key for f in result.findings if f.code == "CONC101"} \
            == {prefix + "lookup:_entries", prefix + "_restamp:_entries",
                prefix + "_restamp:_version"}

    def test_cache_store_without_lock(self):
        # store's lock also covered its private helper _restamp.
        result = analyze_with(
            CACHE, unwrapped(CACHE, "SemanticCache", "store", 0))
        prefix = "repro.core.query.cache.SemanticCache."
        assert {f.key for f in result.findings} == {
            prefix + "store:_entries", prefix + "_restamp:_entries",
            prefix + "_restamp:_version"}

    def test_server_details_update_unlocked(self):
        method = find_method(ast.parse(tree()[0][SERVER]),
                             "DrugTreeServer", "_prefetch_details")
        last = len(lock_blocks(method)) - 1
        self.check(
            SERVER,
            unwrapped(SERVER, "DrugTreeServer", "_prefetch_details", last),
            "repro.mobile.server.DrugTreeServer._prefetch_details:_details")

    def test_server_navigate_bare_write(self):
        self.check(
            SERVER,
            with_statement(SERVER, "DrugTreeServer", "navigate",
                           "self.last_focus = focus"),
            "repro.mobile.server.DrugTreeServer.navigate:last_focus")

    def test_details_lock_held_across_the_resilient_fetch(self):
        # What the server docstring promises never happens; until
        # `fetch_all_resilient` joined BLOCKING_CALLS nothing caught it.
        mutated = tree()[0][SERVER].replace(
            "        outcome = self.federation.fetch_all_resilient(\n"
            "            requests, deadline=self._tap_deadline())\n",
            "        with self._details_lock:\n"
            "            outcome = self.federation.fetch_all_resilient(\n"
            "                requests, deadline=self._tap_deadline())\n")
        assert mutated != tree()[0][SERVER]
        result = analyze_with(SERVER, mutated)
        assert [(f.code, f.key) for f in result.findings] == [(
            "CONC202",
            "repro.mobile.server.DrugTreeServer._prefetch_details:"
            "repro.mobile.server.DrugTreeServer._details_lock:"
            "fetch_all_resilient")]

    def test_metrics_reset_fix_is_what_keeps_the_tree_clean(self):
        # With this PR's MetricsRegistry.reset fix reverted, the gate
        # reports exactly that function.
        result = analyze_with(
            METRICS, unwrapped(METRICS, "MetricsRegistry", "reset", 0))
        assert {f.key.split(":")[0] for f in result.findings} == {
            "repro.obs.metrics.MetricsRegistry.reset"}


class TestPromiseMatchesLocks:
    def documented(self):
        """Class names in the doc's shareable-class table (first cell
        of each row, backticked)."""
        with open(DOC, encoding="utf-8") as handle:
            text = handle.read()
        section = text.split("## Shareable classes", 1)[1].split("\n## ", 1)[0]
        return set(re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE))

    def test_doc_table_is_the_set_of_lock_creating_classes(self):
        program = analyze_with().program
        creating = {cls.name for cls in program.classes.values()
                    if cls.lock_attrs}
        assert len(creating) >= 16
        assert self.documented() == creating

    def test_summary_covers_the_tree(self):
        summary = analyze_with().summary()
        assert summary["shared_classes"] >= 19
        assert summary["guarded_writes"] >= 100
