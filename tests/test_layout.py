"""Package layout: no module imports another module's private names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phaselab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "phaselab":
            continue  # third-party and __future__ imports
        found += [f"line {node.lineno}: from {'.' * node.level}{module} import {alias.name}"
                  for alias in node.names if alias.name.startswith("_")]
    return found


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"erm.py", "harness.py", "sets.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    found = _private_imports(path)
    assert not found, f"{path.name} imports private names: {found}"
