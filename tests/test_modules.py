"""The module graph of the package: every relative import at the top of a
module, no cycle, and an exact layer that imports no array code.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "snverify"
# What the exact layer may import from the package, beside the stdlib.
CHARACTERS_IMPORTS = {"errors", "symgroup"}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports at its top level."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_no_relative_import_inside_a_function():
    found = [
        f"{name}.{func.name}: {ast.unparse(node)}"
        for name, tree in _trees().items()
        for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func) if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert found == []


def test_the_package_imports_form_no_cycle():
    graph = {name: _package_imports(tree) - {name} for name, tree in _trees().items()}
    graph.pop("__init__")
    order = []
    while graph:
        ready = sorted(name for name, deps in graph.items() if deps <= set(order))
        assert ready, f"cycle among {sorted(graph)}"
        order += ready
        for name in ready:
            del graph[name]


def test_characters_imports_only_the_stdlib_errors_and_symgroup():
    tree = _trees()["characters"]
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = [] if node.module in CHARACTERS_IMPORTS else [f".{node.module}"]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        outside += [name for name in names if name.startswith(".")
                    or name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_cli_imports_no_numpy_at_module_level():
    # The front door does no array math: its handlers call the modules that do.
    tree = _trees()["cli"]
    names = [alias.name for node in tree.body if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in tree.body
              if isinstance(node, ast.ImportFrom) and not node.level]
    assert [name for name in names if name.split(".")[0] == "numpy"] == []


def test_cli_writes_no_json_itself():
    # serialize.write is the one writer of the CLI's output, plain or pretty.
    tree = _trees()["cli"]
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) in {"dump", "dumps"}]
    assert calls == []


def test_only_selftest_names_numpy_random():
    # Every seeded command draws from the standard library's random; only the
    # self-test keeps NumPy's generator, whose Haar matrices set the residuals
    # its stdout prints.
    users = set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n.startswith(("np.random", "numpy.random")) for n in names):
                users.add(name)
    assert users == {"selftest"}
