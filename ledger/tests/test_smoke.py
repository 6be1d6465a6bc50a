"""The ledger's own promises, at tiny sizes (run from the repo root:
``python -m pytest ledger/tests -q``)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from ledger import compare, harness, metrics  # noqa: E402

harness.require_program()

from ledger import smoke  # noqa: E402


@pytest.fixture(scope="module")
def found():
    return smoke.run()


@pytest.mark.parametrize("check", smoke.CHECKS)
def test_ledger_keeps_its_promise(found, check):
    assert found[check] == []


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert harness.tail_fraction(1000) == 0.99
    assert harness.tail_fraction(999) == 0.95
    assert harness.tail_fraction(200) == 0.95
    assert harness.tail_fraction(100) == 0.90
    assert harness.tail_fraction(39) == 0.5


def test_compare_calls_a_noisy_row_unresolved_not_unchanged():
    ops = metrics.BY_NAME["ops_per_s"]            # higher is better, 20 %
    quiet = compare.judge(ops, [100, 101, 102], [101, 102, 103])
    assert quiet["status"] == "unchanged"
    noisy = compare.judge(ops, [70, 100, 130], [75, 101, 128])
    assert noisy["status"] == "unresolved"
    slower = compare.judge(ops, [100, 101, 102], [70, 71, 72])
    assert slower["status"] == "regressed"
    assert slower["ratio"] == pytest.approx(71 / 101)
    # Wider than the bound, but every run of B beats every run of A.
    faster = compare.judge(ops, [70, 100, 130], [140, 170, 200])
    assert faster["status"] == "improved"


def test_compare_counts_any_new_failure_as_a_regression():
    failed = metrics.BY_NAME["failed_share"]      # bound: any increase
    assert compare.judge(failed, [0.0], [0.0])["status"] == "unchanged"
    assert compare.judge(failed, [0.0], [0.001])["status"] == "regressed"
