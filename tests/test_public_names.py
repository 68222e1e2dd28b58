"""Every public name of the package has a consumer.

An ``ast`` scan. A module's public names are its ``__all__``, or, where
it has none, the functions, classes and constants it defines at top
level without a leading underscore. Each must meet one condition:

- it is in ``phaseid.__all__``;
- it is read as a name or as an attribute in ``src/phaseid/*.py`` or
  ``bench/*.py`` (strings and docstrings do not count);
- the benchmark traces it by name: a per-layer metric of
  ``BENCHMARK.json`` is named ``<module>.<name>.<...>``.

Tests do not count as consumers: a name that only its own tests read
is dead code with a test.
"""

import ast
import json
from pathlib import Path

import pytest

import phaseid

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phaseid"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("_"))


def public_names(tree: ast.Module) -> list[str]:
    """The module's ``__all__``, or else its top-level public definitions."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return list(ast.literal_eval(node.value))
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def read_names(paths) -> set[str]:
    """Every identifier read as a name or an attribute in ``paths``."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def traced_names(spec: dict) -> set[tuple[str, str]]:
    """(module, name) of every public name a per-layer metric is named after."""
    traced = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) >= 3:
            traced.add((parts[0], parts[1]))
    return traced


def unconsumed(module_path: Path, exported, read, traced) -> list[str]:
    """The public names of ``module_path`` that meet none of the three conditions."""
    module = module_path.stem
    tree = ast.parse(module_path.read_text(encoding="utf-8"))
    return [name for name in public_names(tree)
            if name not in exported and name not in read and (module, name) not in traced]


@pytest.fixture(scope="module")
def consumers():
    read = read_names([*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")])
    traced = traced_names(json.loads((ROOT / "BENCHMARK.json").read_text()))
    return set(phaseid.__all__), read, traced


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_consumer(module, consumers):
    assert unconsumed(PACKAGE / f"{module}.py", *consumers) == []


def test_scan_flags_an_unused_public_function(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""unused_helper, in a docstring, is not a read."""\n'
        "LIMIT = 3\n"
        "_PRIVATE = 4\n"
        "class Traced:\n"
        "    pass\n"
        "def exported():\n"
        "    return LIMIT\n"
        "def unused_helper():\n"
        "    return 'unused_helper'\n"
    )
    assert unconsumed(path, {"exported"}, read_names([path]), {("sample", "Traced")}) == [
        "unused_helper"]
    path.write_text('__all__ = ["exported", "LIMIT"]\nLIMIT = 3\ndef unused_helper(): pass\n')
    assert unconsumed(path, set(), read_names([path]), set()) == ["exported", "LIMIT"]
