"""Ensure the in-repo package is importable even without installation,
and run the whole suite under the runtime lock-order witness."""
import os
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture(scope="session", autouse=True)
def _lockwatch_session():
    """Witness every repro lock acquisition across the suite.

    The sanitizer wraps locks created inside repro code, records each
    thread's acquisition stacks, and fails the session if any two locks
    were ever taken in opposite orders (a latent deadlock, even when
    the interleaving happened to win the race this run).  Set
    ``REPRO_LOCKWATCH=0`` to opt out, e.g. when profiling.
    """
    if os.environ.get("REPRO_LOCKWATCH", "1") == "0":
        yield None
        return
    from tests.obs import lockwatch

    watch = lockwatch.install()
    try:
        yield watch
    finally:
        lockwatch.uninstall()
    watch.assert_acyclic()
