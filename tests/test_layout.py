"""Package layout: no private cross-module imports, no unread imports, no dead module-level
names, generators made only in `ensembles` and never seeded with a literal, no setting read
from the environment; config fields the JSON codec can read."""

import ast
import collections
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


def _definitions(tree):
    """(name, node) for each module-level function, class or constant of `tree` (no dunders)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("__"))


def _references(node):
    """How often each name is read under `node`, as a bare name or as an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    )


def _unread_definitions(private):
    """Module-level names (private or public) that nothing in the package reads outside
    their own definition; names the package root imports count as read."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    refs = sum((_references(tree) for tree in trees.values()), collections.Counter())
    refs.update(alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names)
    return [f"{module}: {name}" for module, tree in trees.items()
            for name, node in _definitions(tree)
            if name.startswith("_") == private and refs[name] - _references(node)[name] < 1]


def test_private_module_names_are_referenced():
    # a private helper that nothing in the package reads, outside its own definition, is dead
    dead = _unread_definitions(private=True)
    assert not dead, f"private names nothing in the package references: {dead}"


def test_public_module_names_are_exported_or_read():
    # a public name that `phaselab` does not export and nothing in the package reads is dead
    dead = _unread_definitions(private=False)
    assert not dead, f"public names neither exported nor read in the package: {dead}"


def _unread_imports(path):
    """Names that an import statement in `path` binds and nothing in `path` reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {lineno}: {name}" for name, lineno in bound.items() if name not in read]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    # an import left behind when its last reader goes; `__init__` imports to export
    found = _unread_imports(path)
    assert not found, f"{path.name} imports names it never reads: {found}"


def _calls(path, names):
    """(name, node) for each call in `path` of a function or method named in `names`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = getattr(node.func, "attr", getattr(node.func, "id", None)) \
            if isinstance(node, ast.Call) else None
        if name in names:
            yield name, node


def _literal_seeds(path):
    """Calls in `path` that seed a generator with a numeric literal: any argument of
    default_rng or SeedSequence, the master seed (first argument) of substream or sub_seed."""
    found = []
    for name, node in _calls(path, ("default_rng", "SeedSequence", "substream", "sub_seed")):
        if name in ("substream", "sub_seed"):  # the other arguments are the consumer's key
            args = [*node.args[:1], *(kw.value for kw in node.keywords if kw.arg == "seed")]
        else:
            args = [*node.args, *(kw.value for kw in node.keywords)]
        if any(isinstance(a, ast.Constant) and type(a.value) in (int, float) for a in args):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_generator_seeded_with_a_literal(path):
    # seeds come from the caller's seed through ensembles.substream / sub_seed;
    # a constant seed is a hidden second source of randomness
    found = _literal_seeds(path)
    assert not found, f"{path.name} seeds a generator with a literal: {found}"


def test_generators_are_made_only_in_ensembles():
    # one way to derive seeds: every other module asks ensembles.substream / sub_seed
    found = [f"{path.name} line {node.lineno}: {ast.unparse(node)}"
             for path in MODULES if path.name != "ensembles.py"
             for _, node in _calls(path, ("default_rng", "SeedSequence"))]
    assert not found, f"generators made outside ensembles: {found}"


def _environment_reads(path):
    """Reads of the process environment in `path`: `os.environ`, `os.getenv`, or either
    imported from `os`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv") \
                and isinstance(node.value, ast.Name) and node.value.id == "os":
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: from os import {alias.name}"
                      for alias in node.names if alias.name in ("environ", "getenv")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_setting_comes_from_the_environment(path):
    # every setting is a config field or a flag; an environment variable is a second,
    # unseen way to set one
    found = _environment_reads(path)
    assert not found, f"{path.name} reads the environment: {found}"


def _codec_violations(cls, path):
    """Fields under dataclass `cls` whose annotation the config JSON codec does not convert."""
    found = []
    for name, tp in typing.get_type_hints(cls).items():
        args = typing.get_args(tp)
        if typing.get_origin(tp) in (typing.Union, types.UnionType) and len(args) == 2 \
                and type(None) in args:
            (tp,) = set(args) - {type(None)}
        if typing.get_origin(tp) is tuple and typing.get_args(tp)[1:] == (Ellipsis,):
            tp = typing.get_args(tp)[0]
        if dataclasses.is_dataclass(tp):
            found += _codec_violations(tp, f"{path}.{name}")
        elif tp not in (int, float, str):
            found.append(f"{path}.{name}: {tp}")
    return found


def test_config_fields_have_codec_types():
    # the codec converts int, float, str, tuple[X, ...], X | None and nested dataclasses;
    # a bare tuple would pass its entries through unchecked
    found = _codec_violations(ExperimentConfig, "ExperimentConfig")
    assert not found, f"config fields the JSON codec cannot convert: {found}"
