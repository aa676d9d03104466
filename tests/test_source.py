"""Package sources compile without warnings and import without sympy."""

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
