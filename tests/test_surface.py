"""The operator surface equals its use. ``golden_cli.json``: ``json`` has one
invocation per ``--json`` command; ``text``/``masked`` hold stdout captured at
the commit before the CLI refactor (``masked``: wall times, digits blanked),
and the output of checks added since (the ``DTQL005`` check)."""

import ast
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
#: Config fields no production caller passes, and why each stays.
ALLOWED = {
    "lod_max_depth", "lod_max_nodes",  # read by ledger/workloads/tap_mix.py
    "prefetch_details",  # tests isolate the details tap from the prefetch
}


@pytest.fixture(scope="module")
def trees():
    """Every program file's syntax tree, by path."""
    return {path: ast.parse(path.read_text())
            for top in ("src", "ledger", "benchmarks", "examples")
            for path in (ROOT / top).rglob("*.py")}


@pytest.fixture(scope="module")
def unset(trees):
    return _unset_options(trees)


def test_every_config_field_is_passed_by_production_code(trees):
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
    assert 40 <= len(fields) <= 45
    assert [f"{cls}.{field}" for cls, field in fields
            if field not in passed.get(cls, ()) and field not in ALLOWED] == []


#: Constructor keyword options no production caller passes, and why
#: each stays. Every other option a caller never sets is a constant.
CONSTRUCTOR_ALLOWED = {
    "IntegrationPipeline.scheduler":
        "tests inject a scheduler with their own retry budget",
    "TableBackedSource.page_size":
        "a per-source property the scheduler reads source by source",
    "QueryError.diagnostics":
        "passed as `error(..., diagnostics=...)` by QueryEngine, whose "
        "`error` is ParseError or QueryError",
    "Molecule.name":
        "data, not a setting: the SMILES parser names a molecule once "
        "it has read it",
}


def _name(node):
    return getattr(node, "id", getattr(node, "attr", ""))


def _init_owners(trees):
    """``(class name -> its ClassDef, class name -> the class whose
    __init__ builds it)`` for every class under src/ (owner None when
    no class in the chain defines ``__init__``)."""
    classes = {node.name: node for path, tree in trees.items()
               if ROOT / "src" in path.parents
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def owner(name, seen=()):
        node = classes.get(name)
        if node is None or name in seen:
            return None
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                return name
        for base in node.bases:
            found = owner(_name(base), (*seen, name))
            if found:
                return found
        return None

    return classes, {name: owner(name) for name in classes}


def _passes(call, params, option):
    """Does *call* set *option* of an ``__init__`` taking *params*?"""
    if any(keyword.arg in (option, None) for keyword in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return option in params and len(call.args) > params.index(option)


def _unset_options(trees):
    """``Class.option`` of every public constructor keyword option
    that no call under src/, ledger/, benchmarks/ or examples/ sets."""
    classes, owners = _init_owners(trees)
    calls: dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) in owners:
                calls.setdefault(owners[_name(node.func)], []).append(node)
            if not isinstance(node, ast.ClassDef):
                continue
            # super().__init__(...) and cls(...) build classes too.
            base = owners.get(_name(node.bases[0])) if node.bases else None
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if isinstance(func, ast.Name) and func.id == "cls":
                    calls.setdefault(owners.get(node.name),
                                     []).append(call)
                elif (_name(func) == "__init__"
                      and isinstance(func.value, ast.Call)
                      and _name(func.value.func) == "super"):
                    calls.setdefault(base, []).append(call)
    unset = set()
    for name, owner in owners.items():
        if name != owner or name.startswith("_"):
            continue
        init = next(stmt for stmt in classes[name].body
                    if isinstance(stmt, ast.FunctionDef)
                    and stmt.name == "__init__")
        args = init.args
        params = [arg.arg for arg in args.posonlyargs + args.args][1:]
        options = params[len(params) - len(args.defaults):] + [
            arg.arg for arg, default in zip(args.kwonlyargs,
                                            args.kw_defaults)
            if default is not None]
        unset.update(f"{name}.{option}" for option in options
                     if not any(_passes(call, params, option)
                                for call in calls.get(name, ())))
    return unset


def test_every_constructor_option_is_passed_by_production_code(unset):
    assert sorted(unset - set(CONSTRUCTOR_ALLOWED)) == []
    # An entry that became passed, or names nothing, is stale.
    assert sorted(set(CONSTRUCTOR_ALLOWED) - unset) == []
    assert all(CONSTRUCTOR_ALLOWED.values())


def _planted(trees, path, old, new):
    """*trees* with *old* replaced by *new* in one file."""
    text = (ROOT / path).read_text()
    assert text.count(old) == 1
    return {**trees, ROOT / path: ast.parse(text.replace(old, new))}


def test_the_gate_catches_an_option_only_tests_would_pass(trees, unset):
    planted = _planted(
        trees, "src/repro/core/query/cache.py",
        "def __init__(self) -> None:",
        "def __init__(self, capacity: int = 1024) -> None:")
    assert _unset_options(planted) - unset == {"SemanticCache.capacity"}


def test_the_gate_counts_super_and_cls_calls(trees, unset):
    # TableBackedSource hands DataSource its options through
    # super().__init__; Database.open builds through cls(...).
    dropped = _planted(trees, "src/repro/sources/base.py",
                       "super().__init__(name, clock, latency, page_size)",
                       "super().__init__(name, clock)")
    assert _unset_options(dropped) - unset \
        == {"DataSource.latency", "DataSource.page_size"}
    dropped = _planted(trees, "src/repro/storage/durable/db.py",
                       "return cls(data_dir, config)",
                       "return cls(data_dir)")
    assert _unset_options(dropped) - unset == {"Database.config"}


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
