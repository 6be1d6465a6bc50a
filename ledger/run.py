"""The DrugTree perf ledger: one command, five workloads, two clocks.

    python3 ledger/run.py                        # all five, one table
    python3 ledger/run.py --trace --out F.json   # + per-layer rows, saved
    python3 ledger/run.py --workload tap_mix --seed 3 --seconds 10 --trace 0
    python3 ledger/run.py --compare A.json B.json
    python3 ledger/run.py --smoke

With ``--workload`` the run happens in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): every ``BENCHMARK.json`` end-to-end metric
with ``--trace 0``, every per-layer metric with ``--trace 1``. Without
it, each workload runs that way in a fresh subprocess of its own, one
after another (``peak_rss_mb`` and every program cache start clean),
and the rows are printed by name with unit and clock tag.

``--seconds`` sizes the work, it does not stop it: each workload turns
it into a fixed number of ops (about that many seconds of them at the
commit that introduced the ledger), so the same seed and seconds give
the same inputs, and ``virtual``/``count`` rows repeat exactly. The
traced run uses a quarter of the size, untraced and then traced on the
same inputs: the ``virtual``/``count`` rows of the two must agree.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ledger import compare, harness, metrics  # noqa: E402
from ledger.harness import Size  # noqa: E402

#: ``setup_s`` is a median over at least SETUP_REPEATS set-ups, and over
#: more (up to SETUP_MAX_REPEATS) while they have taken under
#: SETUP_MIN_S in all: a 0.1 s set-up needs more repeats than a 1 s one
#: for a median as steady.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 12
TRACE_SIZE_SHARE = 0.25
DEFAULT_SECONDS = 10.0


def load(workload: str):
    return importlib.import_module(f"ledger.workloads.{workload}")


def discard(module, world) -> None:
    """Release a world that was set up but will not run (only
    ``durable_rw`` holds anything that needs it: an open store)."""
    if hasattr(module, "discard"):
        module.discard(world)


# -- one workload, in this process ---------------------------------------------

def run_phase(module, seed: int, size: Size, work: Path,
              setup_repeats: int = 1, setup_min_s: float = 0.0,
              tracer=None):
    """Set up, settle, run. Set-up is repeated *setup_repeats* times
    and on until it has taken *setup_min_s* in all; the last world is
    the one that runs. Returns ``(world, out, seconds per set-up,
    host)``: wall numbers are in the stopwatch's reference seconds,
    set-ups net of host steal, and *host* says how fast the host ran
    and what share of the run it did not steal."""
    from repro.obs import MetricsRegistry, set_metrics
    watch = harness.Stopwatch()
    setup_s: list[float] = []
    world = None
    while len(setup_s) < setup_repeats or (
            sum(setup_s) < setup_min_s
            and len(setup_s) < SETUP_MAX_REPEATS):
        if world is not None:
            discard(module, world)
        world = None  # let the previous world go before building again
        set_metrics(MetricsRegistry())
        steal = harness.Steal()
        world, nanos = watch.timed(module.setup, seed, size,
                                   work / f"setup{len(setup_s)}")
        setup_s.append(nanos / 1e9 * steal.kept_share())
    if tracer is not None:
        tracer.end_setup()
    harness.settle()
    steal = harness.Steal()
    out = module.run(world, watch)
    host = {"speed": watch.host_speed(), "kept": steal.kept_share()}
    return world, out, setup_s, host


def net_of_steal(rows: dict[str, dict], kept: float) -> None:
    """Bring the rows that are totals over the run (``Metric.steal``)
    to what they would read had the host stolen nothing."""
    for name, cell in rows.items():
        exponent = metrics.BY_NAME[name].steal
        if exponent:
            cell["value"] *= kept ** exponent


def measure_end_to_end(module, seed: int, size: Size,
                       setup_repeats: int = SETUP_REPEATS,
                       setup_min_s: float = SETUP_MIN_S) -> dict:
    with harness.workdir() as work:
        world, out, setup_s, host = run_phase(
            module, seed, size, work, setup_repeats, setup_min_s)
        rss = harness.peak_rss_mb()
        rows = module.end_to_end(world, out)
        problems = module.check(world, out)
    net_of_steal(rows, host["kept"])
    rows["setup_s"] = harness.row(statistics.median(setup_s),
                                  n=len(setup_s))
    rows["peak_rss_mb"] = harness.row(rss)
    result = _result(module, seed, size, 0, out, host, problems, rows)
    result["inputs"] = harness.fingerprint(world.inputs)
    return result


def measure_per_layer(module, seed: int, size: Size) -> dict:
    """Quarter size, twice on the same inputs: untraced, to show that
    recording changes no ``virtual``/``count`` row, then traced."""
    from ledger.layers import Tallies
    from ledger.trace import Tracer, recorder_cost_ns
    from repro.obs import get_metrics
    size = size.scaled(TRACE_SIZE_SHARE)
    with harness.workdir() as work:
        world, out, _, _ = run_phase(module, seed, size, work / "plain")
        plain = module.end_to_end(world, out)
        problems = module.check(world, out)
        harness.unsettle()
        del world, out

        tracer = Tracer()
        tallies = Tallies(tracer)
        with tracer:
            world, out, _, host = run_phase(
                module, seed, size, work / "traced", tracer=tracer)
        # Spans are folded in raw ns; bring them to reference ns.
        tracer.rescale(host["speed"]["median"])
        traced = module.end_to_end(world, out)
        values = module.per_layer(world, out, tracer, tallies)
        counters = get_metrics().counter_values()
        problems += module.check(world, out)
    problems += [
        f"{name}: traced run read {traced[name]['value']!r}, untraced "
        f"{plain[name]['value']!r}" for name in plain
        if metrics.BY_NAME[name].clock in ("virtual", "count")
        and plain[name]["value"] != traced[name]["value"]]
    values["obs.trace_attributed_share"] = (
        sum(tracer.self_ns.values()) / tracer.op_ns)
    # 1 - traced/untraced ops_per_s, with the untraced wall taken as
    # the traced wall minus what the recorders cost: the two phases'
    # own throughputs differ by more host noise than the recorders add.
    values["obs.trace_overhead_share"] = (
        sum(tracer.calls.values()) * recorder_cost_ns() / tracer.op_ns)
    result = _result(module, seed, size, 1, out, host, problems,
                     {name: harness.row(value)
                      for name, value in values.items()})
    result["traced_wall_s"] = tracer.op_ns / 1e9
    result["spans"] = tracer.table()
    result["counters"] = counters
    result["patches_left"] = len(tracer.patched())
    return result


def _result(module, seed: int, size: Size, trace: int, out, host: dict,
            problems: list[str], rows: dict[str, dict]) -> dict:
    for name, cell in rows.items():
        metric = metrics.BY_NAME[name]
        cell["unit"], cell["clock"] = metric.unit, metric.clock
    return {
        "workload": module.NAME, "seed": seed, "seconds": size.seconds,
        "trace": trace, "correct": not problems,
        "attempted": out.attempted, "failed": out.failed,
        "problems": problems[:20], "host": host,
        "metrics": rows,
    }


def contract_line(result: dict) -> str:
    """The one JSON object ``BENCHMARK.json``'s reader expects."""
    wanted = metrics.PER_LAYER if result["trace"] else metrics.CORE
    rows = result["metrics"]
    if not result["trace"]:
        missing = [m.name for m in wanted if m.name not in rows]
        if missing:
            raise KeyError(f"{result['workload']} lacks {missing}")
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric.name: {
                "value": rows.get(metric.name, {"value": 0.0})["value"],
                "unit": metric.unit}
            for metric in wanted},
    })


def run_one(args) -> int:
    harness.require_program()
    module = load(args.workload)
    size = Size(args.seconds)
    measure = measure_per_layer if args.trace else measure_end_to_end
    result = measure(module, args.seed, size)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print_rows(result)
    print(contract_line(result))
    return 0 if result["correct"] else 1


# -- all workloads, a subprocess each --------------------------------------------

def _spawn(workload: str, args, trace: int) -> dict:
    with harness.workdir() as scratch:
        out = scratch / "result.json"
        command = [sys.executable, __file__, "--workload", workload,
                   "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(out)]
        done = subprocess.run(command, stdout=subprocess.DEVNULL)
        if not out.exists():
            raise SystemExit(
                f"ledger: {workload} (trace {trace}) exited "
                f"{done.returncode} without a result")
        return json.loads(out.read_text())


def _meta(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(harness.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": args.seed,
            "seconds": args.seconds, "repeat": args.repeat}


def print_rows(result: dict) -> None:
    """Every row of one result by name, with unit and clock tag."""
    print(f"{result['workload']}  seed {result['seed']}, "
          f"{result['seconds']:g} s, host speed "
          f"{result['host']['speed']['median']:.2f} of reference, "
          f"{1 - result['host']['kept']:.1%} of the run stolen"
          + (", traced" if result["trace"] else ""))
    for name, cell in result["metrics"].items():
        note = f"n={cell['n']}" if "n" in cell else ""
        if "pct" in cell:
            note += f" p{cell['pct']:g}"
        print(f"  {name:<52} {cell['value']:>14.6g} "
              f"{cell['unit']:<6} {cell['clock']:<8} {note}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def run_all(args) -> int:
    harness.require_program()
    ledger = {"meta": _meta(args), "end_to_end": {}, "per_layer": {}}
    results = []
    for workload in metrics.WORKLOADS:
        runs = [_spawn(workload, args, 0) for _ in range(args.repeat)]
        ledger["end_to_end"][workload] = runs
        if args.trace:
            ledger["per_layer"][workload] = _spawn(workload, args, 1)
            runs = runs + [ledger["per_layer"][workload]]
        for run in runs:
            print_rows(run)
        results += runs
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
    correct = all(run["correct"] for run in results)
    print("all outputs correct" if correct else "OUTPUTS WRONG")
    return 0 if correct else 1


# -- command line ------------------------------------------------------------------

def pin_hash_seed() -> None:
    """Restart under ``PYTHONHASHSEED=0`` unless already there.

    ``str`` hashes are salted per process, and the program's synthetic
    dataset derives annotation GO terms from one, so without the pin
    payload bytes — and every ``count`` row downstream of them — differ
    from process to process for the same seed.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=metrics.WORKLOADS,
                        help="run this one here; last line is JSON")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload (all-workload "
                             "mode); --compare needs >= 2 for a spread")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if argv is None:
        pin_hash_seed()
    if args.smoke:
        harness.require_program()
        from ledger import smoke
        return smoke.main()
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
