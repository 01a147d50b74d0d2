"""Every function, class and method of the package has a caller.

A module-level function or class, or a method that is not a dunder, counts
as used when any of these holds:
- its name appears as a Name, an Attribute or an import somewhere in
  src/cartangrade outside its own definition (the re-exports of
  __init__.py do not count: a name that is exported and run by nothing
  is what this test looks for);
- the benchmark traces it (TRACED in bench/spans.py);
- tests/test_acceptance.py imports it or reads it as an attribute, as in
  cli._s_family_rank or mu.act_on_form;
- a file of bench/ or bench/tests/ names it.
Names are matched bare, so a method counts as used when any attribute of
that name is read.  Every other definition needs an entry in PUBLIC that
says why it stays, and an entry must name a definition that nothing else
keeps.
"""

import ast
from collections import Counter
from pathlib import Path

from test_traced_names import traced_names

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cartangrade"

PUBLIC = {
    "cli.cmd_grade_classify": "run by cli.main through the verb name the parser stores",
    "cli.cmd_grade_iso": "run by cli.main through the verb name the parser stores",
    "oalg.OElem.constant": "library constructor of a scalar element",
    "serialize.welem_from_data": "reader of one derivation payload, the row schema of W grading files",
    "serialize.auto_from_data": "reader of the witness file grade iso writes",
    "serialize.invariants_from_data": "reader of the invariants grade classify writes",
}


def _referenced(tree):
    """Bare names a syntax tree reads: Name ids, Attribute attrs, imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions():
    """(key, name, node) of every module-level function or class and every
    non-dunder method; the key is module.name or module.Class.method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, defs):
                continue
            yield f"{path.stem}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, defs[:2]) and not _dunder(sub.name):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub.name, sub


def _acceptance_names():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced():
    """Keys of the definitions that no rule of the module docstring keeps."""
    in_src = Counter()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            in_src.update(_referenced(ast.parse(path.read_text())))
    bench = set()
    for path in [*(ROOT / "bench").glob("*.py"), *(ROOT / "bench" / "tests").glob("*.py")]:
        bench.update(_referenced(ast.parse(path.read_text())))
    kept = set(traced_names())
    outside = bench | _acceptance_names()
    return {key for key, name, node in definitions()
            if key not in kept and name not in outside
            and in_src[name] == Counter(_referenced(node))[name]}


def test_every_definition_has_a_caller_or_a_reason():
    missing = sorted(unreferenced() - PUBLIC.keys())
    assert not missing, f"defined in src/ and used by nothing: {missing}"


def test_public_entries_name_definitions_nothing_else_keeps():
    gone = sorted(PUBLIC.keys() - {key for key, _, _ in definitions()})
    assert not gone, f"PUBLIC names definitions that are gone: {gone}"
    used = sorted(PUBLIC.keys() - unreferenced())
    assert not used, f"PUBLIC names definitions that are now used: {used}"
