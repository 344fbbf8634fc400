"""Rules the library source and its documented example must keep."""

import ast
import re
import sys
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


def test_library_imports_only_the_standard_library():
    # absolute imports must name a standard-library module; relative ones
    # stay inside the package
    names = []
    for path in SOURCE:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.append((path.name, node.module))
    assert names
    found = [f"{file}: {name}" for file, name in names
             if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_readme_library_example_runs(capsys):
    # the python block under "## Library use" in README.md runs as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
    assert "12/3" in capsys.readouterr().out
