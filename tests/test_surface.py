"""The operator surface equals its use. ``golden_cli.json``: ``json`` has one
invocation per ``--json`` command; ``text``/``masked`` hold stdout captured at
the commit before the CLI refactor (``masked``: wall times, digits blanked)."""

import ast
import json
import re
from pathlib import Path

from repro.cli import build_parser, main

ROOT = Path(__file__).parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
#: Config fields no production caller passes, and why each stays.
ALLOWED = {
    "vector_batch_size",  # the parity suites drive batch boundaries with it
    "lod_max_depth", "lod_max_nodes",  # read by ledger/workloads/tap_mix.py
    "prefetch_details",  # tests isolate the details tap from the prefetch
}


def test_every_config_field_is_passed_by_production_code():
    trees = {path: ast.parse(path.read_text())
             for top in ("src", "ledger", "benchmarks", "examples")
             for path in (ROOT / top).rglob("*.py")}
    passed: dict[str, set] = {}
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", ""))
            passed.setdefault(callee, set()).update(
                keyword.arg for keyword in node.keywords)
    fields = [(node.name, stmt.target.id)
              for path, tree in trees.items() if ROOT / "src" in path.parents
              for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              and node.name.endswith("Config")
              for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
    assert 40 <= len(fields) <= 48
    assert [f"{cls}.{field}" for cls, field in fields
            if field not in passed.get(cls, ()) and field not in ALLOWED] == []


def _run(argv, tmp_path, capsys):
    code = main([str(tmp_path) if arg == "@D" else arg for arg in argv])
    return code, capsys.readouterr().out.replace(str(tmp_path), "@D")


def test_every_json_command_prints_only_json(tmp_path, capsys):
    choices = build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in GOLDEN["json"]} == {
        name for name, sub in choices.items()
        if "--json" in sub._option_string_actions}
    for argv in GOLDEN["json"]:
        json.loads(_run([*argv, "--json"], tmp_path, capsys)[1])


def test_text_output_equals_the_parent_commit(tmp_path, capsys):
    # compact and recover reopen a store bootstrapped by an earlier run.
    _run(["recover", "@D", "--flush-bytes", "4096", *GOLDEN["world"]],
         tmp_path, capsys)
    for kind in ("text", "masked"):
        for entry in GOLDEN[kind]:
            code, out = _run(entry["argv"], tmp_path, capsys)
            if kind == "masked":
                out = re.sub(r"[ -]+", " ", re.sub(r"\d[\d.,]*", "#", out))
            assert (code, out) == (entry["code"], entry["stdout"])
