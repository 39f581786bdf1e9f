"""Every public function, class and method of srfgo has a caller.

A public name (no leading underscore) defined at module level in
src/srfgo, or as a method of a module-level class, must be referenced
somewhere in src/srfgo outside its own definition, or in
tests/test_acceptance.py.  A helper only the unit tests call belongs in the
tests, as their oracle.  References are matched by name, as a bare name, an
attribute or an imported name, so the check can miss a dead name that
shares its spelling with a live one, but it never flags a name that has a
caller.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "srfgo").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# Public names kept without a caller, each with its reason.
EXEMPT = {
    "solver.WindowGraph.objective":
        "the full window objective, the statistic the eviction-aware "
        "detector of ROADMAP.md item 1 is to test",
    "solver.WindowGraph.estimate_of":
        "the window's range-checked read of one time step's estimate, the "
        "way to inspect a window by step rather than by row",
}


def definitions(path: Path):
    """(qualified name, first line, last line) of each public module-level
    function or class of the module at path, and of each public method of
    those classes."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield (f"{module}.{node.name}.{item.name}", item.lineno,
                           item.end_lineno)


def references(path: Path):
    """(name, line) of every bare name, attribute and imported name in the
    file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def uncalled() -> list:
    refs = {path: list(references(path)) for path in (*SOURCES, ACCEPTANCE)}
    missing = []
    for path in SOURCES:
        for qualname, first, last in definitions(path):
            name = qualname.rsplit(".", 1)[1]
            if not any(ref == name and (where != path or not first <= line <= last)
                       for where, found in refs.items() for ref, line in found):
                missing.append(qualname)
    return missing


def test_every_public_name_has_a_caller():
    assert sorted(set(uncalled()) - set(EXEMPT)) == []


def test_every_exemption_is_still_needed():
    assert sorted(set(EXEMPT) - set(uncalled())) == []
