"""The ledger's one timing primitive and the bookkeeping around it.

Every wall number in the ledger comes from :meth:`Stopwatch.timed`:
``time.perf_counter_ns`` immediately around one public call of the
program. Nothing the harness itself does (drawing the next input,
charging the simulated link, keeping results for the oracle) sits
inside a timed interval, so ``ops_per_s`` is ops over the *sum of op
intervals*, not over the loop's elapsed time.

Wall numbers are reported in **reference seconds**. The sandboxes the
ledger runs on share their host: the same process runs 10-30 % faster
or slower for seconds or minutes at a time, whole runs included, which
no amount of repetition inside a run averages away. So the stopwatch
also times a fixed pure-Python kernel (:func:`reference_kernel`)
beside the ops — never counted into a timed interval, at most every
``REFRESH_NS`` — and scales each interval by ``NOMINAL_BURST_NS / (the
kernel's time just then)``. A host running at the reference speed
reads true seconds; a host in a slow phase reads what the op would
have taken at reference speed, to the extent the kernel slows as the
op does (measured: run-to-run spread drops about threefold). The
kernel lives here, not in the program, so it is the same on both sides
of any comparison; ``host`` in every result says how far the host was
from the reference.

What the kernel cannot see is the host taking the CPU away outright
(*steal*): it comes in bursts of tens of milliseconds, which a 0.4 ms
kernel burst dodges and an op does not. The guest kernel reports it
(``steal`` in ``/proc/stat``), so :class:`Steal` reads it around a
phase, and the runner reports the rows that are totals over a phase —
``ledger.metrics.Metric.steal`` says which — net of the phase's stolen
share (README, "Totals are net of host steal", has what it bought).
Percentiles are left as they are: a burst lands in a few ops, and
moves neither a median nor, below 1 % of ops, a p99.

Set-up is followed by :func:`settle` (``gc.collect(); gc.freeze()``):
the world built during set-up leaves the collector's generations, so a
collection triggered inside a timed op walks only what the ops
allocate. The collector stays enabled — users pay it, so the ledger
does too.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for workloads that write (``durable_rw``): inside the
#: checkout, git-ignored, and gone again when :class:`workdir` exits.
WORK_ROOT = ROOT / ".ledger_work"

#: First share of every op sequence that runs but is not measured.
WARMUP_SHARE = 0.10
#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
#: Candidate tail percentiles, highest first. Capped at p99: the
#: metrics are *named* p99, and every full-size workload supports it.
_TAIL_LADDER = (99, 95, 90, 75)

now_ns = time.perf_counter_ns

#: One host-speed sample is the fastest of KERNEL_BURSTS bursts of
#: KERNEL_ROUNDS kernel calls (the fastest, because an interrupt or a
#: collection landing in a burst only ever adds): ~1.4 ms in all.
KERNEL_BURSTS = 3
KERNEL_ROUNDS = 4
#: What one burst takes on the reference host: this sandbox in a quiet
#: spell when the ledger was introduced. Arbitrary, but fixed for good —
#: changing it rescales every wall row of every later ledger file.
NOMINAL_BURST_NS = 440_000
#: A host-speed sample older than this is refreshed after the next op.
REFRESH_NS = 50_000_000


def reference_kernel() -> float:
    """A fixed slice of what the program spends its time on: building
    dict rows, sorting them, walking them. Never change it."""
    rows = [{"a": i, "b": i * 0.5, "c": str(i)} for i in range(300)]
    rows.sort(key=lambda row: -row["b"])
    total = 0.0
    for row in rows:
        if row["a"] % 3:
            total += row["b"]
    return total


class Stopwatch:
    """Times public calls in reference nanoseconds (see module doc)."""

    def __init__(self) -> None:
        self.burst_ns: list[int] = []      # every host-speed sample
        self.raw_ns = 0                    # unscaled wall of the last call
        self._sampling_ns = 0              # total spent taking samples
        self._sampled_at = 0
        self._sample()

    def _sample(self) -> None:
        began = now_ns()
        fastest = None
        for _ in range(KERNEL_BURSTS):
            start = now_ns()
            for _ in range(KERNEL_ROUNDS):
                reference_kernel()
            nanos = now_ns() - start
            if fastest is None or nanos < fastest:
                fastest = nanos
        self.burst_ns.append(fastest)
        self._sampled_at = now_ns()
        self._sampling_ns += self._sampled_at - began

    def timed(self, call, *args):
        """``(result, reference ns)`` of one public call.

        Calls may nest (``serve_ramp`` times the server's entry points
        inside ``ServingFrontend.run``): an inner call refreshes the
        sample like any other, and the outer interval leaves out the
        time its inner calls spent sampling. The interval is scaled by
        the mean of every sample from the one before it to the one
        after it, so a two-second op is tracked through, not bracketed.
        """
        first = len(self.burst_ns) - 1
        sampling_before = self._sampling_ns
        start = now_ns()
        result = call(*args)
        end = now_ns()
        self.raw_ns = end - start - (self._sampling_ns - sampling_before)
        if end - self._sampled_at > REFRESH_NS:
            self._sample()
        samples = self.burst_ns[first:]
        burst = sum(samples) / len(samples)
        return result, round(self.raw_ns * NOMINAL_BURST_NS / burst)

    def host_speed(self) -> dict[str, float]:
        """Reference speed / this host's, over the run: 1.0 is the
        reference host, 0.8 a host that took 25 % longer."""
        speeds = sorted(NOMINAL_BURST_NS / nanos
                        for nanos in self.burst_ns)
        return {"median": percentile(speeds, 0.5), "min": speeds[0],
                "max": speeds[-1], "samples": len(speeds)}


def stolen_ns() -> int:
    """Nanoseconds so far in which this machine's CPUs had work and the
    host ran something else (``steal`` of ``/proc/stat``, in clock
    ticks); 0 where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0
    return int(fields[8]) * (1_000_000_000 // os.sysconf("SC_CLK_TCK"))


class Steal:
    """Host steal over a stretch of wall time, from construction on."""

    #: The most of a stretch that is ever taken for stolen.
    MOST = 0.9

    def __init__(self) -> None:
        self._began = now_ns()
        self._cpu = time.process_time_ns()
        self._stolen = stolen_ns()

    def kept_share(self) -> float:
        """Share of the wall since construction that was not stolen
        from this process: what a total measured over it is multiplied
        by (a rate: divided by) to read net of steal.

        The kernel's figure covers every CPU and this process loads
        one, so it counts no more than the wall this process spent off
        the CPU (its CPU time excludes stolen time)."""
        wall = now_ns() - self._began
        if wall <= 0:
            return 1.0
        off_cpu = wall - (time.process_time_ns() - self._cpu)
        stolen = min(stolen_ns() - self._stolen, off_cpu,
                     self.MOST * wall)
        return 1.0 - max(0.0, stolen) / wall


@dataclass(frozen=True)
class Size:
    """How much work one run does. *seconds* is the run budget each
    workload converts into a fixed op count; *tiny* swaps in the small
    worlds the smoke test uses."""

    seconds: float
    tiny: bool = False

    def scaled(self, share: float) -> "Size":
        return Size(self.seconds * share, self.tiny)


def require_program() -> None:
    """Put ``src/`` on the path, or stop: the ledger measures the
    program in this checkout and refuses to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"ledger: no program to measure ({SRC}/repro is missing)\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def settle() -> None:
    """Retire set-up garbage and freeze the survivors (see module doc)."""
    gc.collect()
    gc.freeze()


def unsettle() -> None:
    """Undo :func:`settle` so a discarded world can be collected."""
    gc.unfreeze()
    gc.collect()


def warmup_count(n_ops: int) -> int:
    return int(n_ops * WARMUP_SHARE)


def percentile(ordered: list, fraction: float):
    """Nearest-rank percentile of an already sorted sample."""
    rank = min(len(ordered) - 1,
               max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def tail_fraction(n_samples: int) -> float:
    """The highest ladder percentile with >= TAIL_SAMPLES beyond it
    (the median when the sample supports none of them)."""
    for percent in _TAIL_LADDER:
        if n_samples * (100 - percent) >= TAIL_SAMPLES * 100:
            return percent / 100
    return 0.5


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bytes_written() -> int:
    """Bytes this process has handed to ``write`` so far (``wchar`` of
    ``/proc/self/io``): WAL, segments, compaction rewrites and the
    manifest all pass through it, and it repeats exactly for the same
    inputs, which directory sizes sampled between batches do not (a
    segment flushed and compacted inside one batch is never seen)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def dir_bytes(path: str | Path) -> int:
    return sum(entry.stat().st_size for entry in Path(path).iterdir()
               if entry.is_file())


class workdir:
    """A private directory under :data:`WORK_ROOT`, removed on exit."""

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # last one out; fails while others run
        except OSError:
            pass


def fingerprint(inputs) -> str:
    """Short digest of a workload's generated inputs."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


def canonical(rows) -> list:
    """Order- and float-noise-insensitive form of a result set, for
    comparing engines whose row order is unspecified."""
    def freeze(row):
        return tuple(sorted(
            (key, round(value, 9) if isinstance(value, float) else value)
            for key, value in row.items()))
    return sorted(map(freeze, rows), key=repr)


def same_rows(got: list[dict], want: list[dict],
              order_column: str | None = None) -> bool:
    """Result-set equality as the repo's own parity suites define it:
    unordered queries compare as multisets; ``ORDER BY … LIMIT`` may
    break ties differently, so for those (*order_column* given) the
    ordered sort column is what has to agree."""
    if order_column is None:
        return canonical(got) == canonical(want)

    def column(rows):
        return [round(row[order_column], 9)
                if isinstance(row[order_column], float)
                else row[order_column] for row in rows]
    return column(got) == column(want)


def order_column(query) -> str | None:
    """The sort column of an ``ORDER BY … LIMIT`` query, else None."""
    if query.order_by is not None and query.limit is not None:
        return query.order_by.column
    return None


# -- metric rows --------------------------------------------------------------

def row(value: float, n: int | None = None,
        pct: float | None = None) -> dict:
    """One reported number; *n* is the sample count behind a timing,
    *pct* the percentile a ``p95`` / ``p99`` row could actually
    support."""
    out = {"value": value}
    if n is not None:
        out["n"] = n
    if pct is not None:
        out["pct"] = round(pct * 100, 1)
    return out


def wall_rows(op_ns: list[int], latency_ns: list[int] | None = None
              ) -> dict[str, dict]:
    """``ops_per_s`` over *op_ns* plus the wall percentiles of
    *latency_ns* (default: the same ops). A sample too small for a
    named percentile reports the highest one it supports instead."""
    latency_ns = op_ns if latency_ns is None else latency_ns
    ordered = sorted(latency_ns)
    p99 = tail_fraction(len(ordered))
    p95 = min(p99, 0.95)
    return {
        "ops_per_s": row(len(op_ns) / (sum(op_ns) / 1e9), n=len(op_ns)),
        "op_wall_p50_us": row(percentile(ordered, 0.5) / 1e3,
                              n=len(ordered)),
        "op_wall_p95_us": row(percentile(ordered, p95) / 1e3,
                              n=len(ordered), pct=p95),
        "op_wall_p99_us": row(percentile(ordered, p99) / 1e3,
                              n=len(ordered), pct=p99),
    }


def outcome_rows(attempted: int, failed: int) -> dict[str, dict]:
    """``failed_share`` and ``goodput`` of a closed loop, where every
    op that did not fail is good."""
    return {
        "failed_share": row(failed / attempted, n=attempted),
        "goodput": row((attempted - failed) / attempted, n=attempted),
    }
