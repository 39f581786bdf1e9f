"""Every public function, class and method of srfgo has a caller, and every
record field a reader.

A public name (no leading underscore) defined at module level in
src/srfgo, or as a method of a module-level class, must be referenced
somewhere in src/srfgo outside its own definition, or in
tests/test_acceptance.py.  A helper only the unit tests call belongs in the
tests, as their oracle.  References are matched by name, as a bare name, an
attribute or an imported name, so the check can miss a dead name that
shares its spelling with a live one, but it never flags a name that has a
caller.

Likewise each field of a module-level @dataclass or NamedTuple class must be
read as an attribute, ``.field``, in src/srfgo outside that class's
``__post_init__``, or in tests/test_acceptance.py.  A field only the unit
tests read is state nothing uses.  Reads are matched by attribute name too.
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

# Record classes whose fields may go unread as attributes, with the reason.
EXEMPT_FIELDS = {
    "liegroup.LogTerms":
        "se3_left_jacobian_inv unpacks the terms by position",
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


def _is_record(node: ast.ClassDef) -> bool:
    """A @dataclass (bare or called) or a NamedTuple subclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases))


def fields(path: Path):
    """(qualified name, __post_init__ line range) of each field of the
    module's top-level record classes."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if not (isinstance(node, ast.ClassDef) and _is_record(node)):
            continue
        post_init = next(((item.lineno, item.end_lineno) for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name == "__post_init__"), (0, -1))
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield f"{module}.{node.name}.{item.target.id}", post_init


def attribute_reads(path: Path):
    """(attribute name, line) of every attribute the file loads."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def unread_fields() -> list:
    reads = {path: list(attribute_reads(path)) for path in (*SOURCES, ACCEPTANCE)}
    missing = []
    for path in SOURCES:
        for qualname, (first, last) in fields(path):
            name = qualname.rsplit(".", 1)[1]
            if not any(attr == name and (where != path or not first <= line <= last)
                       for where, found in reads.items() for attr, line in found):
                missing.append(qualname)
    return missing


def test_every_public_name_has_a_caller():
    assert sorted(set(uncalled()) - set(EXEMPT)) == []


def test_every_field_is_read():
    assert sorted(name for name in unread_fields()
                  if name.rsplit(".", 1)[0] not in EXEMPT_FIELDS) == []


def test_every_exemption_is_still_needed():
    assert sorted(set(EXEMPT) - set(uncalled())) == []
    unread_classes = {name.rsplit(".", 1)[0] for name in unread_fields()}
    assert sorted(set(EXEMPT_FIELDS) - unread_classes) == []
