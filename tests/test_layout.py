"""Package layout: no private cross-module imports; config fields the JSON codec can read."""

import ast
import dataclasses
import types
import typing
from pathlib import Path

import pytest

from phaselab import ExperimentConfig

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


def _codec_violations(cls, path):
    """Fields under dataclass `cls` whose annotation the config JSON codec does not convert."""
    found = []
    for name, tp in typing.get_type_hints(cls).items():
        args = typing.get_args(tp)
        if typing.get_origin(tp) in (typing.Union, types.UnionType) and len(args) == 2 \
                and type(None) in args:
            (tp,) = set(args) - {type(None)}
        if dataclasses.is_dataclass(tp):
            found += _codec_violations(tp, f"{path}.{name}")
        elif tp not in (int, float, str, tuple):
            found.append(f"{path}.{name}: {tp}")
    return found


def test_config_fields_have_codec_types():
    # the codec converts int, float, str, tuple, X | None and nested dataclasses
    found = _codec_violations(ExperimentConfig, "ExperimentConfig")
    assert not found, f"config fields the JSON codec cannot convert: {found}"
