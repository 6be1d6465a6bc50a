"""Runtime lock-order witness: the one detector of cross-class cycles.

The static analyzer (:mod:`repro.analysis.concurrency`) checks one
class at a time — its writes, and the order of its *own* locks.  The
order of locks that belong to different classes (a breaker reading the
clock under its lock, a source bumping a counter under its meter lock)
is checked here and nowhere else, against the acquisitions real
executions make: a cycle on a path no test drives is not reported.
:func:`install` replaces the ``threading.Lock`` / ``threading.RLock``
factories with ones that wrap locks *created inside repro code* (the
creating frame's filename decides — stdlib, executor, and test-harness
locks stay raw).  Every wrapped acquisition records, per thread, the
stack of locks currently held and adds edges ``held → acquired`` to a
global lock-order graph keyed by each lock's **creation site**
(``repro/sources/clock.py:53``), so every instance of a class shares
one node.

Adding an edge that closes a cycle records a violation with both
acquisition stacks (first witness per edge).  Re-acquiring a wrapped
``RLock`` the same thread already holds is reentrancy, not an edge;
re-acquiring a plain wrapped ``Lock`` is an immediate self-deadlock
violation.  :func:`assert_acyclic` raises with every witness attached —
the suite-wide conftest fixture calls it after the session so any test
that drove two locks in opposite orders fails loudly even when the
interleaving never actually deadlocked.

The witness never reads the wall clock (rule L001) and its one internal
mutex is leaf-only — nothing is ever acquired while holding it — so it
cannot introduce an ordering of its own.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback

#: The real factories, captured at import so wrapped code can't recurse.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

#: Path fragment that marks "created inside repro code".
_REPRO_FRAGMENT = f"{os.sep}repro{os.sep}"


class LockOrderViolation(AssertionError):
    """A lock-order cycle (or self-deadlock) witnessed at runtime."""


def _site_of(frame) -> str:
    """``path:line`` creation-site identity for a lock."""
    filename = frame.f_code.co_filename
    marker = filename.rfind(_REPRO_FRAGMENT)
    if marker != -1:
        filename = "repro" + filename[marker + len(_REPRO_FRAGMENT) - 1:]
    return f"{filename}:{frame.f_lineno}"


class LockWatch:
    """Global lock-order graph built from witnessed acquisitions."""

    def __init__(self) -> None:
        self._watch_lock = _REAL_LOCK()  # leaf-only internal mutex
        self._local = threading.local()
        #: (held_site, acquired_site) → first witness description
        self.edges: dict[tuple[str, str], str] = {}
        self.violations: list[str] = []
        self.acquisitions = 0

    # -- per-thread state --------------------------------------------------

    def _held(self) -> list:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    # -- graph -------------------------------------------------------------

    def _has_path(self, start: str, goal: str) -> bool:
        """Is *goal* reachable from *start* in the edge graph?"""
        frontier = [start]
        seen = {start}
        while frontier:
            current = frontier.pop()
            if current == goal:
                return True
            for held, acquired in self.edges:
                if held == current and acquired not in seen:
                    seen.add(acquired)
                    frontier.append(acquired)
        return False

    def _witness(self, held_site: str, site: str) -> str:
        stack = "".join(traceback.format_stack(sys._getframe(3), limit=8))
        return (f"{held_site} -> {site} acquired on thread "
                f"{threading.current_thread().name}:\n{stack}")

    def record_acquire(self, lock: "WatchedLock") -> None:
        """Called by a wrapped lock *after* it was acquired."""
        held = self._held()
        if lock.reentrant and any(entry is lock for entry in held):
            held.append(lock)  # reentrant re-acquire: no new ordering
            return
        with self._watch_lock:
            self.acquisitions += 1
            if not lock.reentrant \
                    and any(entry is lock for entry in held):
                self.violations.append(
                    f"non-reentrant lock {lock.site} re-acquired while "
                    "already held (self-deadlock): \n"
                    + self._witness(lock.site, lock.site))
            else:
                for entry in held:
                    if entry.site == lock.site:
                        continue
                    key = (entry.site, lock.site)
                    if key in self.edges:
                        continue
                    # Closing a cycle means some other path already
                    # ordered these locks the other way around.
                    if self._has_path(lock.site, entry.site):
                        self.violations.append(
                            "lock-order cycle closed by "
                            + self._witness(entry.site, lock.site)
                            + "existing edges: "
                            + "; ".join(f"{a} -> {b}"
                                        for a, b in sorted(self.edges)))
                    self.edges[key] = self._witness(entry.site,
                                                    lock.site)
        held.append(lock)

    def record_release(self, lock: "WatchedLock") -> None:
        held = self._held()
        for position in range(len(held) - 1, -1, -1):
            if held[position] is lock:
                del held[position]
                return

    # -- reporting ---------------------------------------------------------

    def assert_acyclic(self) -> None:
        """Raise :class:`LockOrderViolation` if any cycle was seen."""
        if self.violations:
            raise LockOrderViolation(
                f"{len(self.violations)} lock-order violation(s) "
                "witnessed at runtime:\n\n"
                + "\n\n".join(self.violations))

    def reset(self) -> None:
        with self._watch_lock:
            self.edges.clear()
            self.violations.clear()
            self.acquisitions = 0


class WatchedLock:
    """A ``threading.Lock``/``RLock`` that reports to a LockWatch."""

    def __init__(self, watch: LockWatch, site: str,
                 reentrant: bool) -> None:
        self._inner = _REAL_RLOCK() if reentrant else _REAL_LOCK()
        self._watch = watch
        self.site = site
        self.reentrant = reentrant

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        # The one sanctioned bare acquire: this *is* the lock wrapper.
        got = self._inner.acquire(blocking, timeout)  # noqa: L002
        if got:
            self._watch.record_acquire(self)
        return got

    def release(self) -> None:
        self._watch.record_release(self)
        self._inner.release()

    def __enter__(self) -> bool:
        got = self._inner.__enter__()
        self._watch.record_acquire(self)
        return got

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def _is_owned(self) -> bool:  # Condition-protocol compatibility
        owned = getattr(self._inner, "_is_owned", None)
        if owned is not None:
            return owned()
        return self._inner.locked()

    def __repr__(self) -> str:
        kind = "RLock" if self.reentrant else "Lock"
        return f"WatchedLock({kind}, site={self.site})"


#: The process-wide watch all wrapped locks report to.
_WATCH = LockWatch()

#: Stack of (previous Lock factory, previous RLock factory) saved by
#: install() so installs nest and uninstall() restores exactly.
_INSTALLS: list[tuple[object, object]] = []


def get_lockwatch() -> LockWatch:
    return _WATCH


def _should_wrap() -> bool:
    """Wrap only locks created by repro code (creator's frame decides)."""
    frame = sys._getframe(2)
    filename = frame.f_code.co_filename
    return _REPRO_FRAGMENT in filename or \
        filename.replace(os.sep, "/").startswith("src/repro/")


def _watched_lock_factory():
    if _should_wrap():
        return WatchedLock(_WATCH, _site_of(sys._getframe(1)), False)
    return _REAL_LOCK()


def _watched_rlock_factory():
    if _should_wrap():
        return WatchedLock(_WATCH, _site_of(sys._getframe(1)), True)
    return _REAL_RLOCK()


def install() -> LockWatch:
    """Patch the ``threading`` lock factories; returns the watch."""
    _INSTALLS.append((threading.Lock, threading.RLock))
    threading.Lock = _watched_lock_factory  # type: ignore[assignment]
    threading.RLock = _watched_rlock_factory  # type: ignore[assignment]
    return _WATCH


def uninstall() -> None:
    """Restore the factories saved by the matching :func:`install`."""
    if not _INSTALLS:
        return
    previous_lock, previous_rlock = _INSTALLS.pop()
    threading.Lock = previous_lock  # type: ignore[assignment]
    threading.RLock = previous_rlock  # type: ignore[assignment]


def installed() -> bool:
    return bool(_INSTALLS)
