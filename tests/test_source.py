"""Package sources compile without warnings, import without sympy, and
hold no recursive closures."""

import ast
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "seqlatin").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def test_package_imports_without_sympy():
    """sympy is a test-only reference: no package module may import it."""
    modules = ", ".join(f"seqlatin.{p.stem}" for p in SOURCES if p.stem != "__init__")
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import {modules}; "
        "assert 'sympy' not in sys.modules, 'sympy imported'"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def _recursive_closures(tree: ast.AST) -> list[str]:
    """Functions nested in a function that call themselves by name."""
    found = []
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for outer in ast.walk(tree):
        if not isinstance(outer, funcs):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, funcs):
                continue
            if any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == inner.name
                for node in ast.walk(inner)
            ):
                found.append(f"{outer.name}.{inner.name}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_recursive_closures(path):
    """A search's depth must not be bounded by the caller's stack."""
    assert _recursive_closures(ast.parse(path.read_text())) == []


def test_recursive_closure_detector():
    src = "def outer():\n    def walk(i):\n        return walk(i - 1) if i else 0\n    return walk(3)\n"
    assert _recursive_closures(ast.parse(src)) == ["outer.walk"]
