"""Fixture tests for the per-class concurrency analyzer.

Each fixture seeds one violation shape — a lock-order cycle, an
unguarded write in a lock-owning class, a reentrant re-acquire — and
asserts the exact rule ID, file, and line the analyzer reports, plus
the suppression machinery (``# noqa``) and the stable finding keys
around it.  A fixture class declares itself shared the way ``src/``
does: by creating a lock in ``__init__``.
"""

import json
import textwrap

from repro.analysis.concurrency import (
    CONC_RULES,
    analyze_paths,
    analyze_sources,
)
from repro.analysis.diag import Severity

PATH = "src/repro/example.py"


def analyze(*sources):
    """Analyze fixture sources: bare strings or (path, source) pairs."""
    named = []
    for entry in sources:
        path, text = entry if isinstance(entry, tuple) else (PATH, entry)
        named.append((path, textwrap.dedent(text)))
    return analyze_sources(named)


def codes(result):
    return [finding.code for finding in result.findings]


class TestLockOrderGraph:
    def test_opposite_order_cycle_flagged(self):
        result = analyze("""\
            import threading

            class Pair:
                def __init__(self):
                    self._alpha_lock = threading.Lock()
                    self._beta_lock = threading.Lock()

                def forward(self):
                    with self._alpha_lock:
                        with self._beta_lock:
                            pass

                def backward(self):
                    with self._beta_lock:
                        with self._alpha_lock:
                            pass
        """)
        assert codes(result) == ["CONC201"]
        finding = result.findings[0]
        assert finding.key.startswith("cycle:")
        assert "_alpha_lock" in finding.message
        assert "_beta_lock" in finding.message
        assert "opposite order" in finding.message
        assert finding.file == PATH

    def test_consistent_order_passes(self):
        result = analyze("""\
            import threading

            class Pair:
                def __init__(self):
                    self._alpha_lock = threading.Lock()
                    self._beta_lock = threading.Lock()

                def forward(self):
                    with self._alpha_lock:
                        with self._beta_lock:
                            pass

                def also_forward(self):
                    with self._alpha_lock:
                        with self._beta_lock:
                            pass
        """)
        assert codes(result) == []

    def test_interprocedural_cycle_flagged(self):
        # Neither function nests two `with` blocks; the opposite
        # orders only exist across `self._x()` calls.
        result = analyze("""\
            import threading

            class Pair:
                def __init__(self):
                    self._alpha_lock = threading.Lock()
                    self._beta_lock = threading.Lock()

                def forward(self):
                    with self._alpha_lock:
                        self._take_beta()

                def _take_beta(self):
                    with self._beta_lock:
                        pass

                def backward(self):
                    with self._beta_lock:
                        self._take_alpha()

                def _take_alpha(self):
                    with self._alpha_lock:
                        pass
        """)
        assert codes(result) == ["CONC201"]
        assert result.findings[0].key.startswith("cycle:")

    def test_self_deadlock_on_plain_lock(self):
        result = analyze("""\
            import threading

            class Box:
                def __init__(self):
                    self._box_lock = threading.Lock()

                def outer(self):
                    with self._box_lock:
                        with self._box_lock:
                            pass
        """)
        assert codes(result) == ["CONC201"]
        finding = result.findings[0]
        assert finding.key.startswith("self:")
        assert "self-deadlock" in finding.message
        assert finding.line == 9

    def test_rlock_reentrancy_is_fine(self):
        # The identical shape with an RLock is legal reentrancy.
        result = analyze("""\
            import threading

            class Box:
                def __init__(self):
                    self._box_lock = threading.RLock()

                def outer(self):
                    with self._box_lock:
                        with self._box_lock:
                            pass
        """)
        assert codes(result) == []

    def test_interprocedural_self_deadlock(self):
        # The re-acquire happens in a callee; only the entry-held
        # fixpoint can see the lock is already held on entry.
        result = analyze("""\
            import threading

            class Box:
                def __init__(self):
                    self._box_lock = threading.Lock()

                def outer(self):
                    with self._box_lock:
                        self.inner()

                def inner(self):
                    with self._box_lock:
                        pass
        """)
        assert codes(result) == ["CONC201"]
        assert "Box.inner" in result.findings[0].message


class TestSharedStateWrites:
    def test_unguarded_write_exact_span(self):
        result = analyze("""\
            import threading

            class Sink:
                def __init__(self):
                    self._sink_lock = threading.Lock()

                def push(self, item):
                    self.last = item
        """)
        assert codes(result) == ["CONC101"]
        finding = result.findings[0]
        assert finding.file == PATH
        assert finding.line == 8
        assert finding.key == "repro.example.Sink.push:last"

    def test_every_write_form_counts(self):
        # Assignment forms, subscript stores, del, and container
        # mutators on self state are all writes; reads and calls of
        # non-mutating methods are not.
        result = analyze("""\
            import threading

            class Sink:
                def __init__(self):
                    self._sink_lock = threading.Lock()
                    self.rows = {}
                    self.order = []

                def push(self, key, item):
                    self.count += 1
                    self.rows[key] = item
                    del self.rows[key]
                    self.order.append(key)
                    self.rows[key].parts.add(item)
                    self.head, self.tail = key, item
                    return self.rows.get(key), self.order.index(key)
        """)
        assert [(f.line, f.key.split(":")[1]) for f in result.findings] \
            == [(10, "count"), (11, "rows"), (12, "rows"), (13, "order"),
                (14, "rows.parts"), (15, "head"), (15, "tail")]

    def test_inherited_lock_makes_subclass_shared(self):
        result = analyze("""\
            import threading

            class Base:
                def __init__(self):
                    self._base_lock = threading.Lock()

            class Child(Base):
                def push(self, item):
                    self.last = item

                def push_safely(self, item):
                    with self._base_lock:
                        self.last = item
        """)
        assert [f.key for f in result.findings] \
            == ["repro.example.Child.push:last"]

    def test_guarded_write_passes(self):
        result = analyze("""\
            import threading

            class Sink:
                def __init__(self):
                    self._sink_lock = threading.Lock()

                def push(self, item):
                    with self._sink_lock:
                        self.last = item
        """)
        assert codes(result) == []

    def test_caller_lock_dominates(self):
        # The write itself is bare, but every path into it holds the
        # lock — the must-intersection fixpoint proves the guard.
        result = analyze("""\
            import threading

            class Sink:
                def __init__(self):
                    self._sink_lock = threading.Lock()

                def push(self, item):
                    with self._sink_lock:
                        self._store(item)

                def _store(self, item):
                    self.last = item
        """)
        assert codes(result) == []

    def test_one_bare_path_defeats_domination(self):
        result = analyze("""\
            import threading

            class Sink:
                def __init__(self):
                    self._sink_lock = threading.Lock()

                def push(self, item):
                    with self._sink_lock:
                        self._store(item)

                def push_fast(self, item):
                    self._store(item)

                def _store(self, item):
                    self.last = item
        """)
        assert codes(result) == ["CONC101"]
        assert "Sink._store" in result.findings[0].message

    def test_unreachable_write_not_flagged(self):
        # A lock-less class is not checked: owning no lock, it makes
        # no promise to be shared.
        result = analyze("""\
            class Sink:
                def push(self, item):
                    self.last = item
        """)
        assert codes(result) == []
        assert result.summary()["shared_classes"] == 0


class TestHeldAcrossBlocking:
    def test_lock_across_fetch_flagged(self):
        result = analyze("""\
            import threading

            class Cache:
                def __init__(self, source):
                    self._cache_lock = threading.Lock()
                    self._source = source

                def get(self, key):
                    with self._cache_lock:
                        return self._source.fetch(key)
        """)
        assert codes(result) == ["CONC202"]
        finding = result.findings[0]
        assert finding.line == 10
        assert "fetch" in finding.message
        assert CONC_RULES[finding.code].severity is Severity.WARNING

    def test_transitively_blocking_callee_flagged(self):
        # The lock is held across a helper that (indirectly) sleeps.
        result = analyze("""\
            import threading

            class Cache:
                def __init__(self, clock):
                    self._cache_lock = threading.Lock()
                    self._clock = clock

                def get(self, key):
                    with self._cache_lock:
                        self._pause()
                        return key

                def _pause(self):
                    self._clock.sleep(0.01)
        """)
        assert codes(result) == ["CONC202"]
        assert "_pause" in result.findings[0].message

    def test_string_join_under_lock_is_not_blocking(self):
        # `"; ".join(...)` shares a name with Thread.join; a constant
        # receiver proves it is a string operation, not a wait.
        result = analyze("""\
            import threading

            class Report:
                def __init__(self):
                    self._report_lock = threading.Lock()

                def render(self, parts):
                    with self._report_lock:
                        self.text = "; ".join(parts)
        """)
        assert codes(result) == []

    def test_blocking_outside_lock_passes(self):
        result = analyze("""\
            import threading

            class Cache:
                def __init__(self, source):
                    self._cache_lock = threading.Lock()
                    self._source = source

                def get(self, key):
                    value = self._source.fetch(key)
                    with self._cache_lock:
                        self.last = value
                    return value
        """)
        assert codes(result) == []


class TestSuppression:
    RACY = """\
        import threading

        class Sink:
            def __init__(self):
                self._sink_lock = threading.Lock()

            def push(self, item):
                self.last = item
    """

    def test_noqa_conc_code(self):
        source = self.RACY.replace("self.last = item",
                                   "self.last = item  # noqa: CONC101")
        assert codes(analyze(source)) == []

    def test_bare_noqa(self):
        source = self.RACY.replace("self.last = item",
                                   "self.last = item  # noqa")
        assert codes(analyze(source)) == []

    def test_unrelated_noqa_does_not_suppress(self):
        source = self.RACY.replace("self.last = item",
                                   "self.last = item  # noqa: L001")
        assert codes(analyze(source)) == ["CONC101"]


    def test_only_the_noqa_comment_silences_a_planted_finding(
            self, tmp_path):
        planted = tmp_path / "planted.py"
        planted.write_text(textwrap.dedent(self.RACY), encoding="utf-8")
        [finding] = analyze_paths([str(tmp_path)]).findings
        assert finding.code == "CONC101"
        # What used to be a second way to silence it: a triage file
        # found by walking up from the analyzed path.
        (tmp_path / "concurrency.baseline.json").write_text(json.dumps({
            "version": 1, "suppressions": [{
                "rule": finding.code, "key": finding.key,
                "justification": "single-threaded in production"}],
        }), encoding="utf-8")
        assert analyze_paths([str(tmp_path)]).findings == [finding]
        planted.write_text(textwrap.dedent(self.RACY).replace(
            "self.last = item", "self.last = item  # noqa: CONC101"),
            encoding="utf-8")
        assert analyze_paths([str(tmp_path)]).findings == []


class TestFindingKey:
    RACY = TestSuppression.RACY

    def test_key_is_stable_across_line_shifts(self):
        shifted = "# a comment\n# another\n" + textwrap.dedent(self.RACY)
        plain = analyze(self.RACY)
        moved = analyze_sources([(PATH, shifted)])
        assert plain.findings[0].line != moved.findings[0].line
        assert plain.findings[0].key == moved.findings[0].key


class TestSyntaxErrors:
    def test_unparsable_module_reports_conc000(self):
        result = analyze("def broken(:\n    pass\n")
        assert codes(result) == ["CONC000"]
        assert result.findings[0].key.startswith("syntax:")


class TestRepoIsClean:
    def test_source_tree_has_no_unsuppressed_findings(self):
        # The acceptance gate: `repro race src` must come back clean.
        result = analyze_paths(["src"])
        assert [f"{f.code} {f.file}:{f.line}" for f in result.findings] \
            == []
