"""Rules the library source itself must keep."""

import ast
from pathlib import Path

import altgt

SOURCE = sorted(Path(altgt.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so an invariant written as one
    # would silently stop being checked
    assert SOURCE
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCE
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_has_no_floats():
    # exact arithmetic only: no float or imaginary literal and no float(...)
    # or complex(...) call
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCE
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Constant) and type(node.value) in (float, complex))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex"))
    ]
    assert found == []
