"""Tests for the repository invariant linter (L001-L007)."""

import textwrap

from repro.analysis import LINT_RULES, lint_file, lint_paths, lint_source
from repro.analysis.concurrency import analyze_sources


def run(source, path="src/repro/example.py"):
    return lint_source(textwrap.dedent(source), path)


def race(source, path="src/repro/example.py"):
    """The findings ``repro race`` reports for *source*."""
    return analyze_sources([(path, textwrap.dedent(source))]).findings


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestL001WallClock:
    def test_pre_fix_baseline_pattern(self):
        # The exact pattern baseline.py had before this PR.
        found = run("""\
            import time

            def execute():
                started = time.perf_counter()
                return time.perf_counter() - started
        """)
        assert codes(found) == ["L001", "L001"]
        assert found[0].line == 4

    def test_from_import(self):
        found = run("""\
            from time import perf_counter
            t = perf_counter()
        """)
        assert codes(found) == ["L001"]

    def test_aliased_import(self):
        found = run("""\
            import time as t
            x = t.monotonic()
        """)
        assert codes(found) == ["L001"]

    def test_aliasing_the_function_is_caught(self):
        found = run("""\
            import time
            now = time.perf_counter
        """)
        assert codes(found) == ["L001"]

    def test_datetime_now(self):
        found = run("""\
            from datetime import datetime
            stamp = datetime.now()
        """)
        assert codes(found) == ["L001"]

    def test_time_sleep_is_fine(self):
        assert run("""\
            import time
            time.sleep(0.1)
        """) == []

    def test_timing_module_is_exempt(self):
        found = run("""\
            import time
            now_wall = time.perf_counter
        """, path="src/repro/obs/timing.py")
        assert found == []


class TestL002BareAcquire:
    def test_bare_acquire(self):
        found = run("lock.acquire()\n")
        assert codes(found) == ["L002"]

    def test_self_lock_acquire(self):
        found = run("""\
            class Thing:
                def poke(self):
                    self._lock.acquire()
        """)
        assert codes(found) == ["L002"]

    def test_with_statement_is_fine(self):
        assert run("""\
            def f(lock):
                with lock:
                    pass
        """) == []


class TestL003SharedStateWrites:
    """CONC101: a ``self`` write is flagged when its class owns a lock
    (the class's declaration that it is shared) and no lock dominates
    every path to the write — no class allowlist, no directory list.
    (Once lint's L003; the class keeps its name and file so its test
    ids stay stable.)"""

    def test_unguarded_write_flagged(self):
        found = race("""\
            import threading

            class Tracer:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    self.dropped += 1
        """)
        assert codes(found) == ["CONC101"]
        assert "Tracer.bump" in found[0].message

    def test_guarded_write_passes(self):
        assert race("""\
            import threading

            class MetricsRegistry:
                def __init__(self):
                    self._create_lock = threading.Lock()

                def bump(self):
                    with self._create_lock:
                        self.total = 1
        """) == []

    def test_unreachable_method_not_flagged(self):
        # Same write as test_unguarded_write_flagged, but the class
        # owns no lock: a lock-less class is not checked.
        assert race("""\
            class Tracer:
                def bump(self):
                    self.dropped += 1
        """) == []

    def test_init_is_exempt(self):
        assert race("""\
            import threading

            class FetchScheduler:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.pending = []
        """) == []

    def test_thread_local_is_exempt(self):
        assert race("""\
            import threading

            class Tracer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._local = threading.local()

                def reset_stack(self):
                    self._local.stack = []
                    self._local_stack.append(1)
        """) == []

    def test_reachability_crosses_calls(self):
        # The public method never writes; a helper it calls does.
        found = race("""\
            import threading

            class Sink:
                def __init__(self):
                    self._lock = threading.Lock()

                def record(self, item):
                    self._note(item)

                def _note(self, item):
                    self.seen = item
        """)
        assert codes(found) == ["CONC101"]
        assert "Sink._note" in found[0].message

    def test_dominating_lock_on_call_path_passes(self):
        # The helper itself takes no lock, but its only caller holds
        # one — the interprocedural must-analysis sees the guard.
        assert race("""\
            import threading

            class Sink:
                def __init__(self):
                    self._lock = threading.Lock()

                def record(self, item):
                    with self._lock:
                        self._note(item)

                def _note(self, item):
                    self.seen = item
        """) == []

    def test_partially_guarded_path_flagged(self):
        # One caller holds the lock, another does not: no dominator.
        found = race("""\
            import threading

            class Sink:
                def __init__(self):
                    self._lock = threading.Lock()

                def record(self, item):
                    with self._lock:
                        self._note(item)

                def record_fast(self, item):
                    self._note(item)

                def _note(self, item):
                    self.seen = item
        """)
        assert codes(found) == ["CONC101"]

    def test_nested_with_counts(self):
        assert race("""\
            import threading

            class Tracer:
                def __init__(self):
                    self._lock = threading.Lock()

                def deep(self):
                    with self._lock:
                        with self._aux("x") as f:
                            self.dropped = 0
        """) == []


class TestL004Randomness:
    def test_module_function_in_core(self):
        found = run("""\
            import random
            x = random.random()
        """, path="src/repro/core/query/pick.py")
        assert codes(found) == ["L004"]

    def test_unseeded_random_instance(self):
        found = run("""\
            from random import Random
            rng = Random()
        """, path="src/repro/core/pick.py")
        assert codes(found) == ["L004"]

    def test_seeded_random_is_fine(self):
        assert run("""\
            import random
            rng = random.Random(42)
            x = rng.random()
        """, path="src/repro/core/pick.py") == []

    def test_rule_inactive_outside_core(self):
        assert run("""\
            import random
            x = random.random()
        """, path="src/repro/workloads/pick.py") == []


class TestL005SwallowedSourceFaults:
    def test_except_pass_flagged(self):
        found = run("""\
            from repro.errors import SourceError

            def fetch():
                try:
                    pull()
                except SourceError:
                    pass
        """)
        assert codes(found) == ["L005"]
        assert "swallows" in found[0].message

    def test_family_members_flagged(self):
        found = run("""\
            from repro.errors import SourceUnavailableError

            def fetch():
                try:
                    pull()
                except SourceUnavailableError:
                    ...
        """)
        assert codes(found) == ["L005"]

    def test_tuple_clause_flagged(self):
        found = run("""\
            def fetch():
                try:
                    pull()
                except (ValueError, BreakerOpenError):
                    pass
        """)
        assert codes(found) == ["L005"]

    def test_handled_fault_passes(self):
        assert run("""\
            def fetch():
                try:
                    pull()
                except SourceError:
                    statuses["kind"] = "missing"
        """) == []

    def test_unrelated_exception_passes(self):
        assert run("""\
            def fetch():
                try:
                    pull()
                except KeyError:
                    pass
        """) == []

    def test_noqa_suppresses(self):
        assert run("""\
            def fetch():
                try:
                    pull()
                except SourceError:  # noqa: L005
                    pass
        """) == []


class TestL006BatchPathDispatch:
    BATCH_PATH = "src/repro/core/query/vectorized.py"

    def test_matches_call_flagged_in_vectorized(self):
        found = run("""\
            def scan(pred, rows):
                return [r for r in rows if pred.matches(r)]
        """, path=self.BATCH_PATH)
        assert codes(found) == ["L006"]
        assert "per-row" in found[0].message

    def test_row_as_dict_flagged_in_columnar(self):
        found = run("""\
            def explode(schema, rows):
                return [schema.row_as_dict(r) for r in rows]
        """, path="src/repro/storage/columnar.py")
        assert codes(found) == ["L006"]

    def test_rule_inactive_elsewhere(self):
        assert run("""\
            def scan(pred, rows):
                return [r for r in rows if pred.matches(r)]
        """, path="src/repro/core/query/physical.py") == []

    def test_compiled_closures_pass(self):
        assert run("""\
            def scan(passes, rows):
                return [r for r in rows if passes(r)]
        """, path=self.BATCH_PATH) == []

    def test_shipped_batch_modules_have_no_noqa(self):
        # The guard may never be waived in the modules it protects.
        for module in ("src/repro/core/query/vectorized.py",
                       "src/repro/storage/columnar.py"):
            with open(module, encoding="utf-8") as handle:
                assert "noqa" not in handle.read(), module


class TestL007FileMutation:
    def test_write_mode_open_flagged(self):
        found = run("""\
            def save(path, data):
                with open(path, "w") as handle:
                    handle.write(data)
        """, path="src/repro/core/snapshot.py")
        assert codes(found) == ["L007"]
        assert "crash-safe" in found[0].message

    def test_append_and_exclusive_modes_flagged(self):
        found = run("""\
            a = open("x", "ab")
            b = open("y", mode="x")
            c = open("z", "r+b")
        """, path="src/repro/workloads/dump.py")
        assert codes(found) == ["L007", "L007", "L007"]

    def test_os_write_flagged(self):
        found = run("""\
            import os
            os.write(3, b"payload")
        """, path="src/repro/sources/spool.py")
        assert codes(found) == ["L007"]

    def test_read_only_open_passes(self):
        assert run("""\
            import os
            with open("x", encoding="utf-8") as handle:
                handle.read()
            open("y", "rb").close()
            os.remove("z")
        """, path="src/repro/core/loader.py") == []

    def test_durable_engine_is_exempt(self):
        assert run("""\
            handle = open("seg-0.sst", "wb")
        """, path="src/repro/storage/durable/sstable.py") == []

    def test_obs_is_exempt(self):
        assert run("""\
            with open("trace.json", "w") as handle:
                handle.write("{}")
        """, path="src/repro/obs/export.py") == []

    def test_method_named_open_passes(self):
        assert run("""\
            db = registry.open("dir", "w")
        """, path="src/repro/core/anything.py") == []

    def test_no_l007_suppressions_shipped(self):
        # The durable boundary may never be waived outside its owners.
        # (Mentions in docstrings/help text are fine; `# noqa` lines
        # naming L007 are not.)
        import os
        import re
        suppression = re.compile(r"#\s*noqa[^\n]*L007")
        for root, dirs, names in os.walk("src"):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            parts = root.replace(os.sep, "/").split("/")
            if "obs" in parts or "durable" in parts:
                continue
            for name in names:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as handle:
                    assert not suppression.search(handle.read()), path


class TestSuppression:
    def test_bare_noqa(self):
        assert run("""\
            import time
            t = time.time()  # noqa
        """) == []

    def test_coded_noqa(self):
        assert run("""\
            import time
            t = time.time()  # noqa: L001
        """) == []

    def test_wrong_code_does_not_suppress(self):
        found = run("""\
            import time
            t = time.time()  # noqa: L002
        """)
        assert codes(found) == ["L001"]

    def test_multiple_codes(self):
        assert run("""\
            import time
            t = time.time()  # noqa: L002, L001
        """) == []


class TestEntryPoints:
    def test_syntax_error_reported_not_raised(self):
        found = lint_source("def broken(:\n", "x.py")
        assert codes(found) == ["L000"]

    def test_rule_registry_documented(self):
        assert set(LINT_RULES) == {"L001", "L002", "L004", "L005",
                                   "L006", "L007"}
        assert all(LINT_RULES.values())

    def test_lint_file_reads_real_module(self):
        assert lint_file("src/repro/obs/timing.py") == []

    def test_repo_source_tree_is_clean(self):
        """The acceptance gate: `repro lint src/` passes on this tree."""
        assert lint_paths(["src"]) == []

    def test_lint_paths_accepts_single_file(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nx = time.time()\n")
        found = lint_paths([str(bad)])
        assert codes(found) == ["L001"]
        assert found[0].file == str(bad)
        assert found[0].line == 2
