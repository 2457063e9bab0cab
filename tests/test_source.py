"""Guards over the package source itself."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "dunkl"


def _names(node) -> set:
    """Every name a node reads or binds, as a bare name or an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _exported(body) -> set:
    """The names a module body lists in its __all__ (none without one)."""
    for stmt in body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return set(ast.literal_eval(stmt.value))
    return set()


def _uncalled(guarded) -> list:
    """module:name of each module-level function or class of the package
    for which guarded(stmt, exported) holds and that no other statement of
    the package names; exported is its module's __all__."""
    bodies = {path.name: ast.parse(path.read_text()).body for path in sorted(SRC.glob("*.py"))}
    assert len(bodies) > 10
    statements = [(module, stmt) for module, body in bodies.items() for stmt in body]
    names = [(stmt, _names(stmt)) for _, stmt in statements]
    return [
        f"{module}:{stmt.name}"
        for module, stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and guarded(stmt, _exported(bodies[module]))
        and not any(stmt.name in used for other, used in names if other is not stmt)
    ]


def test_private_module_functions_and_classes_have_a_caller():
    # an undecorated module-level private function or class that no other
    # statement of the package names is dead code (decorated ones register
    # themselves, e.g. the verify suites)
    dead = _uncalled(
        lambda stmt, exported: stmt.name.startswith("_")
        and not stmt.name.startswith("__")
        and not stmt.decorator_list
    )
    assert not dead, f"private definitions with no caller in the package: {dead}"


def test_public_definitions_outside_all_have_a_caller():
    # a public module-level function or class that its module does not
    # export and that no other statement of the package names is dead code
    dead = _uncalled(lambda stmt, exported: not stmt.name.startswith("_") and stmt.name not in exported)
    assert not dead, f"public definitions outside __all__ with no caller in the package: {dead}"


def test_class_methods_and_properties_are_named_somewhere():
    # a method or property of a package class that no statement of the
    # package or of its tests names is dead code (dunder methods are called
    # by the language itself)
    paths = [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    named = set().union(*map(_names, trees.values()))
    dead = [
        f"{path.name}:{cls.name}.{fn.name}"
        for path, tree in trees.items()
        if path.parent == SRC
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in named
    ]
    assert not dead, f"methods and properties named nowhere in src/ or tests/: {dead}"


def _reads(node) -> set:
    """Every name a node reads, as a bare name or an attribute."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    }


def test_private_module_constants_are_read():
    # a private module-level constant that no statement of the package
    # reads is a leftover
    bodies = [(path.name, ast.parse(path.read_text()).body) for path in sorted(SRC.glob("*.py"))]
    read = set().union(*(_reads(stmt) for _, body in bodies for stmt in body))
    private = [
        (module, target.id)
        for module, body in bodies
        for stmt in body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if isinstance(target, ast.Name)
        and target.id.startswith("_")
        and not target.id.startswith("__")
    ]
    assert len(private) > 5
    unread = [f"{module}:{name}" for module, name in private if name not in read]
    assert not unread, f"private module constants that the package never reads: {unread}"


def test_kernel_blocks_reach_a_product_only_through_the_parity_skip():
    # `transform._blocks` is read by the two pair functions only; each
    # unpacks the pair into names that it passes to `transform._product`
    # and nowhere else, and that helper holds the one matrix product of
    # `transform`, so no block product can bypass its skip of an identically
    # zero half
    bodies = {path.name: ast.parse(path.read_text()).body for path in sorted(SRC.glob("*.py"))}
    readers = [(module, stmt) for module, body in bodies.items() for stmt in body if "_blocks" in _reads(stmt)]
    assert sorted(f"{module}:{stmt.name}" for module, stmt in readers) == [
        "transform.py:forward_pair",
        "transform.py:inverse_pair",
    ]
    for _, fn in readers:
        calls = [sub for sub in ast.walk(fn) if isinstance(sub, ast.Call) and _names(sub.func) == {"_blocks"}]
        assigns = [
            sub for sub in ast.walk(fn) if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call) and sub.value in calls
        ]
        assert len(calls) == len(assigns) == 1 and isinstance(assigns[0].targets[0], ast.Tuple), fn.name
        blocks = {target.id for target in assigns[0].targets[0].elts}
        loads = {
            sub
            for sub in ast.walk(fn)
            if isinstance(sub, ast.Name) and sub.id in blocks and isinstance(sub.ctx, ast.Load)
        }
        through = {
            sub
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_product"
            for arg in call.args
            for sub in ast.walk(arg)
        }
        assert loads and loads <= through, f"{fn.name} uses a kernel block outside _product"
    products = [
        getattr(stmt, "name", "<module>")
        for stmt in bodies["transform.py"]
        for sub in ast.walk(stmt)
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult)
        or isinstance(sub, ast.Call) and _names(sub.func) & {"matmul", "dot", "einsum", "tensordot", "inner", "vdot"}
    ]
    assert products == ["_product"]


def test_norm_readouts_go_through_one_lebesgue_reduction():
    # the profile stack reads its amalgam and Fofana norms from its profile
    # rows through `norms._lebesgue`, without wrapping a row in a grid
    # function, and `lp_norm` is that reduction's one-row case, with no sum
    # or max of its own
    body = {getattr(stmt, "name", None): stmt for stmt in ast.parse((SRC / "norms.py").read_text()).body}
    stack = body["_ProfileStack"]
    assert "GridFunction" not in _names(stack)
    for fn in stack.body:
        if getattr(fn, "name", None) in ("amalgam", "fofana"):
            assert "_lebesgue" in _reads(fn), fn.name
    lp = _names(body["lp_norm"])
    assert "_lebesgue" in lp and not lp & {"sum", "max", "abs"}
