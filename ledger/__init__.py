"""The DrugTree perf ledger: five named workloads on two clocks.

See ``ledger/README.md``; run with ``python3 ledger/run.py``.
"""
