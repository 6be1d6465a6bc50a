"""The reach gate: every function in ``src/repro`` runs from a program entry
point, or is listed in ``allowlist.txt`` with the reason it stays.

    python tests/reach/reach.py              # run every entry point, then gate

Each entry point runs in a subprocess of its own (``JOBS`` at a time)
under a call profiler (``_probe.py``) with ``PYTHONHASHSEED=0``, so
``ledger/run.py`` does not re-exec itself out from under the profiler. A function is *reached* when
any entry point entered its code. The gate covers top-level functions
and methods of top-level classes that are at least ``MIN_LINES`` lines
long and are not dunders. It fails on a gated function that no entry
point reached and the allowlist does not name, on an allowlist entry
that is now reached or names no gated function (stale), and on an entry
point that crashed or exited with an unexpected code.

The allowlist holds one entry a line, ``path::Qualified.name  reason``,
with the path relative to ``src/``; ``#`` starts a comment line. An
entry that names a class covers every gated method of it.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).with_name("allowlist.txt")
PROBE = Path(__file__).with_name("_probe.py")
MIN_LINES = 10
JOBS = 2

# The workload and scenario names come from the program's own tables.
for _path in (str(SRC), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)
from ledger.metrics import WORKLOADS  # noqa: E402
from repro.faults import SCENARIOS  # noqa: E402


@dataclass(frozen=True)
class Function:
    """One ``def`` in the package, as the profiler will see its code."""

    key: str            # "repro/chem/smiles.py::parse_smiles"
    path: str           # absolute
    first_line: int     # co_firstlineno: the first decorator, else the def
    lines: int
    nested: bool

    @property
    def name(self) -> str:
        return self.key.split("::")[1].rsplit(".", 1)[-1]

    @property
    def gated(self) -> bool:
        dunder = self.name.startswith("__") and self.name.endswith("__")
        return not self.nested and not dunder and self.lines >= MIN_LINES


@dataclass
class Verdict:
    unlisted: list[Function] = field(default_factory=list)
    stale: list[tuple[str, str]] = field(default_factory=list)
    unreached: list[Function] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.unlisted and not self.stale


def functions(src: Path = SRC) -> list[Function]:
    """Every function and method under *src*/repro, nested ones marked."""
    found: list[Function] = []

    def visit(body, path: Path, prefix: str, nested: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno
                                             for d in node.decorator_list])
                found.append(Function(
                    f"{path.relative_to(src).as_posix()}::{prefix}{node.name}",
                    str(path), first, node.end_lineno - node.lineno + 1,
                    nested))
                visit(node.body, path, f"{prefix}{node.name}.", True)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.",
                      nested or bool(prefix))
            elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler,
                                   ast.With)):
                visit(ast.iter_child_nodes(node), path, prefix, nested)

    for path in sorted((src / "repro").rglob("*.py")):
        visit(ast.parse(path.read_text()).body, path.resolve(), "", False)
    return found


def parse_allowlist(text: str) -> dict[str, str]:
    """``{key: reason}``; an entry without a reason, or listed twice, is
    an error."""
    entries: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        if not reason.strip():
            raise ValueError(f"allowlist line {number}: {key} has no reason")
        if key in entries:
            raise ValueError(f"allowlist line {number}: {key} listed twice")
        entries[key] = reason.strip()
    return entries


def _covering(key: str) -> tuple[str, ...]:
    """The allowlist keys that cover function *key*: itself and, for a
    method, its class (one entry, one reason, for a whole class)."""
    path, qualname = key.split("::")
    owner = qualname.rpartition(".")[0]
    return (key, f"{path}::{owner}") if owner else (key,)


def classify(funcs: list[Function], reached: set[tuple[str, int]],
             allowlist: dict[str, str]) -> Verdict:
    """Gate *funcs* against the ``(path, first_line)`` pairs a run
    *reached* and the *allowlist*. Pure: no files, no processes."""
    verdict = Verdict()
    covered: dict[str, bool] = {}    # entry -> covers an unreached one?
    for f in funcs:
        if not f.gated:
            continue
        missed = (f.path, f.first_line) not in reached
        entries = [k for k in _covering(f.key) if k in allowlist]
        for entry in entries:
            covered[entry] = covered.get(entry, False) or missed
        if missed:
            verdict.unreached.append(f)
            if not entries:
                verdict.unlisted.append(f)
    for key in allowlist:
        if key not in covered:
            verdict.stale.append((key, "names no gated function"))
        elif not covered[key]:
            verdict.stale.append((key, "is reached"))
    return verdict


# -- the entry points ----------------------------------------------------------

@dataclass
class EntryPoint:
    """Steps run one after another, sharing a fresh directory ``@D``.
    A step is ``(kind, target, args, expected exit code or None)``."""

    name: str
    steps: list[tuple[str, str, list[str], int | None]]


def _cli(name: str, *argv: str, expect: int | None = 0) -> EntryPoint:
    return EntryPoint(name, [("module", "repro", list(argv), expect)])


def entry_points() -> list[EntryPoint]:
    points = [EntryPoint("ledger --smoke",
                         [("script", "ledger/run.py", ["--smoke"], 0)])]
    points += [EntryPoint(f"ledger {w}", [(
        "script", "ledger/run.py",
        ["--workload", w, "--seconds", "2", "--seed", "3"], 0)])
        for w in WORKLOADS]
    points += [EntryPoint(path, [("script", path, [], 0)]) for path in sorted(
        glob.glob("examples/*.py", root_dir=ROOT))]
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    points += [_cli(f"golden json {' '.join(argv)}", *argv, "--json",
                    expect=None) for argv in golden["json"]]
    points += [_cli(f"golden {kind} {' '.join(entry['argv'])}",
                    *entry["argv"], expect=entry["code"])
               for kind in ("text", "masked") for entry in golden[kind]]
    # The CLI lines of .github/workflows/ci.yml.
    points += [_cli(f"ci chaos {s}", "chaos", s, "--taps", "12", "--json")
               for s in SCENARIOS]
    points += [
        _cli("ci cluster --verify", "cluster", "--verify", "--json"),
        _cli("ci cluster --repair", "cluster", "--repair"),
        EntryPoint("ci compact+recover", [
            ("module", "repro", ["compact", "@D", "--flush-bytes", "8192",
                                 "--json"], 0),
            ("module", "repro", ["recover", "@D", "--json"], 0),
            ("module", "repro", ["info"], 0)]),
        EntryPoint("ci export", [("module", "repro", ["export", "@D"], 0)]),
        _cli("ci lint", "lint", "src/"),
        _cli("ci race", "race", "src/"),
        _cli("ci check", "check", "--file", "docs/DTQL.md"),
        _cli("ci explain empty", "explain", "--estimate-only",
             "SELECT count(*) FROM bindings WHERE p_affinity > 9 "
             "AND p_affinity < 2"),
        _cli("ci explain ill-typed", "explain", "--estimate-only",
             "SELECT * WHERE organism = 5", expect=1),
    ]
    edge = ("SELECT count(*) FROM bindings WHERE leaf_pre <= 33 "
            "IN SUBTREE 'clade_0001'")
    points += [_cli("ci query clade edge", "query", edge),
               _cli("ci query --naive clade edge", "query", "--naive", edge)]
    return points


def _run(point: EntryPoint, scratch: Path) -> tuple[set, list[str]]:
    """Run *point*'s steps; return what they reached and what went wrong."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    reached: set = set()
    problems: list[str] = []
    with tempfile.TemporaryDirectory(dir=scratch) as work:
        data_dir = os.path.join(work, "data")
        for number, (kind, target, args, expect) in enumerate(point.steps):
            out = os.path.join(work, f"step{number}.json")
            argv = [data_dir if arg == "@D" else arg for arg in args]
            done = subprocess.run(
                [sys.executable, str(PROBE), out, kind, target, *argv],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True)
            if done.returncode != 0 or not os.path.exists(out):
                problems.append(f"{point.name}: probe failed\n{done.stderr}")
                continue
            result = json.loads(Path(out).read_text())
            reached.update((path, line) for path, line in result["reached"])
            if result["exit"] == "crashed" or (
                    expect is not None and result["exit"] != expect):
                problems.append(f"{point.name}: exit {result['exit']}, "
                                f"expected {expect}\n{done.stderr}")
    return reached, problems


def main() -> int:
    allowlist = parse_allowlist(ALLOWLIST.read_text())
    points = entry_points()
    reached: set = set()
    problems: list[str] = []
    with tempfile.TemporaryDirectory() as scratch, \
            ThreadPoolExecutor(max_workers=JOBS) as pool:
        for point_reached, point_problems in pool.map(
                lambda point: _run(point, Path(scratch)), points):
            reached |= point_reached
            problems += point_problems
    funcs = functions()
    verdict = classify(funcs, reached, allowlist)
    missed = [f for f in funcs if (f.path, f.first_line) not in reached]
    print(f"-- {len(points)} entry points; {len(funcs) - len(missed)} of "
          f"{len(funcs)} functions reached; {len(missed)} unreached "
          f"({sum(f.lines for f in missed)} lines), of which "
          f"{len(verdict.unreached)} gated, {len(allowlist)} allowlisted")
    for problem in problems:
        print(f"error: entry point {problem}")
    for f in verdict.unlisted:
        print(f"error: {f.key} ({f.lines} lines) is reached by no entry "
              f"point and not in {ALLOWLIST.name}")
    for key, why in verdict.stale:
        print(f"error: stale {ALLOWLIST.name} entry {key} {why}")
    return 0 if verdict.ok and not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
