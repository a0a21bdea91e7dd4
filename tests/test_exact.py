"""The library stays integer-exact and dependency-free: no float literal, no
true division, no float() call, and no import from outside the standard
library and the package, in any module under src/spinblocks."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "spinblocks").glob("*.py"))


def inexact_nodes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(f"{where}: float() call")
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            found.extend(f"{where}: import {n}" for n in names if not _allowed(n))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if not _allowed(node.module):
                found.append(f"{where}: from {node.module} import")
    return found


def _allowed(module: str) -> bool:
    top = module.split(".")[0]
    return top == "spinblocks" or top in sys.stdlib_module_names


def test_modules_found():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact(path):
    assert inexact_nodes(ast.parse(path.read_text(), filename=str(path))) == []


def test_checker_catches_each_kind():
    source = "import numpy\nfrom scipy import linalg\nx = 1.5\ny = 3 / 2\nz = float(1)\nw = 1\nw /= 2\n"
    assert len(inexact_nodes(ast.parse(source))) == 6


def test_no_declared_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines
