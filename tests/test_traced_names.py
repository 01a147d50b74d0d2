"""Every name the benchmark traces still exists in the package.

bench/spans.py wraps each name of its TRACED tuple by rebinding module
attributes, so a rename or deletion in the package breaks the benchmark's
per-layer table.  The tuple is read from the file as a literal; the
benchmark module itself is not imported.
"""

import ast
import functools
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# Names that left the package while still listed in bench/spans.py; only a
# change to the benchmark itself may drop them from TRACED.
STALE = frozenset({"gradings.admissible_degree"})


def traced_names():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED tuple")


def resolves(name: str) -> bool:
    """Whether "module.attr[.attr]" names an attribute of a cartangrade module."""
    module, *attrs = name.split(".")
    try:
        functools.reduce(getattr, attrs, importlib.import_module(f"cartangrade.{module}"))
    except (AttributeError, ModuleNotFoundError):
        return False
    return True


def test_traced_names_resolve_in_the_package():
    names = traced_names()
    assert len(names) > 30
    missing = {name for name in names if not resolves(name)}
    assert missing <= STALE
