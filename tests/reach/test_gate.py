"""The reach gate's own decisions, on a synthetic profile: no entry point
runs here, only the pure parts of ``reach.py``."""

import pytest

from tests.reach.reach import classify, functions, parse_allowlist


def _body(indent: str, lines: int) -> str:
    """*lines* statements, the last a return."""
    steps = [f"{indent}v{i} = {i}" for i in range(lines - 1)]
    return "\n".join(steps + [f"{indent}return 0"]) + "\n"


# Line counts run from the ``def`` to the last line of the body.
SOURCE = (
    "def planted():\n" + _body("    ", 9)             # 10 lines: gated
    + "\n\ndef short():\n" + _body("    ", 8)       # 9 lines: below the gate
    + "\n\nclass Widget:\n"
    + "    def __init__(self):\n" + _body("        ", 11)  # a dunder
    + "\n    def run(self):\n"                         # gated, by its nested
    + "        def nested():\n" + _body("            ", 11)  # nested
    + "        return nested()\n"
    + "\n    @property\n    def size(self):\n"
    + _body("        ", 11)                          # decorated
)

KEY = "repro/toy.py::"


@pytest.fixture
def funcs(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "toy.py").write_text(SOURCE)
    return {f.key.removeprefix(KEY): f for f in functions(tmp_path)}


def reached(funcs, *names):
    return {(funcs[name].path, funcs[name].first_line) for name in names}


def test_functions_are_read_as_the_profiler_sees_them(funcs):
    assert funcs["planted"].lines == 10 and funcs["planted"].gated
    assert funcs["short"].lines == 9 and not funcs["short"].gated
    assert not funcs["Widget.__init__"].gated
    assert funcs["Widget.run.nested"].nested
    assert not funcs["Widget.run.nested"].gated
    size = funcs["Widget.size"]
    # The profiler names a decorated function by its decorator's line.
    assert size.gated and size.first_line == SOURCE.splitlines().index(
        "    @property") + 1


def test_a_planted_unreached_function_fails(funcs):
    verdict = classify(list(funcs.values()),
                       reached(funcs, "Widget.run", "Widget.size"), {})
    assert [f.key for f in verdict.unlisted] == [KEY + "planted"]
    assert not verdict.ok


def test_short_dunder_and_nested_functions_pass_unreached(funcs):
    verdict = classify(list(funcs.values()),
                       reached(funcs, "planted", "Widget.run",
                               "Widget.size"), {})
    assert verdict.ok
    assert verdict.unreached == []


def test_a_listed_unreached_function_passes(funcs):
    verdict = classify(list(funcs.values()),
                       reached(funcs, "Widget.run", "Widget.size"),
                       {KEY + "planted": "a reason"})
    assert verdict.ok
    assert [f.key for f in verdict.unreached] == [KEY + "planted"]


def test_a_class_entry_covers_its_methods(funcs):
    verdict = classify(list(funcs.values()), reached(funcs, "planted"),
                       {KEY + "Widget": "a reason"})
    assert verdict.ok


def test_a_stale_entry_fails(funcs):
    reached_all = reached(funcs, "planted", "Widget.run", "Widget.size")
    verdict = classify(list(funcs.values()), reached_all,
                       {KEY + "planted": "now reached",
                        KEY + "Widget": "every method reached",
                        KEY + "short": "below the gate",
                        KEY + "gone": "deleted"})
    assert sorted(verdict.stale) == [
        (KEY + "Widget", "is reached"),
        (KEY + "gone", "names no gated function"),
        (KEY + "planted", "is reached"),
        (KEY + "short", "names no gated function"),
    ]
    assert verdict.unlisted == []
    assert not verdict.ok


def test_allowlist_entries_need_a_reason_and_are_unique():
    assert parse_allowlist("# comment\n\nrepro/a.py::f  why\n") == {
        "repro/a.py::f": "why"}
    with pytest.raises(ValueError, match="no reason"):
        parse_allowlist("repro/a.py::f\n")
    with pytest.raises(ValueError, match="twice"):
        parse_allowlist("repro/a.py::f  one\nrepro/a.py::f  two\n")


def test_the_committed_allowlist_parses_and_stays_small():
    from tests.reach.reach import ALLOWLIST
    entries = parse_allowlist(ALLOWLIST.read_text())
    assert 0 < len(entries) <= 30
    gated = {f.key for f in functions() if f.gated}
    classes = {key.rpartition(".")[0] for key in gated
               if "." in key.split("::")[1]}
    assert set(entries) <= gated | classes


def test_functions_under_if_try_and_async_are_gated(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "guarded.py").write_text(
        "import sys\n"
        "if sys.version_info >= (3, 10):\n"
        "    def chosen():\n" + _body("        ", 9)
        + "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    def fallback():\n" + _body("        ", 9)
        + "\n\nasync def fetch():\n" + _body("    ", 9))
    found = {f.key.removeprefix("repro/guarded.py::"): f
             for f in functions(tmp_path)}
    assert set(found) == {"chosen", "fallback", "fetch"}
    assert all(f.gated and not f.nested for f in found.values())


def test_a_class_inside_a_function_is_nested(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "factory.py").write_text(
        "def make():\n"
        "    class Local:\n"
        "        def method(self):\n" + _body("            ", 11)
        + "    return Local\n")
    found = {f.key.removeprefix("repro/factory.py::"): f
             for f in functions(tmp_path)}
    assert found["make.Local.method"].nested
    assert not found["make.Local.method"].gated


def test_reach_is_by_code_location_not_by_name(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    for name in ("one.py", "two.py"):
        (package / name).write_text("def same():\n" + _body("    ", 9))
    funcs = functions(tmp_path)
    one = next(f for f in funcs if f.key == "repro/one.py::same")
    verdict = classify(funcs, {(one.path, one.first_line)}, {})
    assert [f.key for f in verdict.unlisted] == ["repro/two.py::same"]


def test_entry_points_cover_every_program_surface():
    import json

    from ledger.metrics import WORKLOADS
    from repro.faults import SCENARIOS
    from tests.reach.reach import ROOT, entry_points
    names = [point.name for point in entry_points()]
    assert len(names) == len(set(names))
    assert "ledger --smoke" in names
    assert {f"ledger {w}" for w in WORKLOADS} <= set(names)
    assert {f"ci chaos {s}" for s in SCENARIOS} <= set(names)
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    n_golden = (len(golden["json"]) + len(golden["text"])
                + len(golden["masked"]))
    assert sum(name.startswith("golden ") for name in names) == n_golden


def test_no_entry_point_is_an_example_script():
    """An example keeps nothing alive: no step of any entry point runs a
    script under ``examples/``."""
    from tests.reach.reach import entry_points
    targets = [target for point in entry_points()
               for _, target, _, _ in point.steps]
    assert targets
    assert not [target for target in targets
                if target.startswith("examples/")]


def test_ci_runs_the_cli_lines_the_gate_counts():
    """The parity queries and the LOD-off mobile session are CI lines:
    the gate may count them only while CI runs them."""
    from tests.reach.reach import (
        CLADE_TOP10,
        PARITY_QUERIES,
        ROOT,
        entry_points,
    )
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    names = {point.name for point in entry_points()}
    for name, dtql in {**PARITY_QUERIES, "clade top-10": CLADE_TOP10
                       }.items():
        assert dtql in ci
        assert {f"ci query {name}", f"ci query --naive {name}"} <= names
    assert "python -m repro mobile --no-lod --gestures 5" in ci
    assert "ci mobile --no-lod" in names
