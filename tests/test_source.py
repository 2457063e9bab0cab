"""Guards over the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dunkl"


def _names(node) -> set:
    """Every name a node reads or binds, as a bare name or an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_private_module_functions_and_classes_have_a_caller():
    # an undecorated module-level private function or class that no other
    # statement of the package names is dead code (decorated ones register
    # themselves, e.g. the verify suites)
    statements = [
        (path.name, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    assert len({name for name, _ in statements}) > 10
    names = [(stmt, _names(stmt)) for _, stmt in statements]
    dead = [
        f"{module}:{stmt.name}"
        for module, stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
        and not stmt.decorator_list
        and not any(stmt.name in used for other, used in names if other is not stmt)
    ]
    assert not dead, f"private definitions with no caller in the package: {dead}"
