"""Every public name of the package has a consumer.

An ``ast`` scan. A module's public names are its ``__all__``, or, where
it has none, the functions, classes and constants it defines at top
level without a leading underscore. Each must meet one condition:

- it is in ``phaseid.__all__``;
- it is read as a name or as an attribute in ``src/phaseid/*.py`` or
  ``bench/*.py`` (strings and docstrings do not count);
- the benchmark traces it by name: a per-layer metric of
  ``BENCHMARK.json`` is named ``<module>.<name>.<...>``.

The public methods and properties of every class defined at the top
level of a module are scanned too; dunder and underscored names are
exempt. Each must be read as an attribute, ``obj.name``, in
``src/phaseid/*.py`` or ``bench/*.py`` (a bare name does not count),
or be traced as ``<module>.<Class>.<method>`` in ``BENCHMARK.json``.

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


def read_attributes(paths) -> set[str]:
    """Every identifier read as an attribute, ``obj.name``, in ``paths``."""
    return {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def traced_names(spec: dict) -> set[tuple[str, str]]:
    """(module, name) of every public name a per-layer metric is named after."""
    traced = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) >= 3:
            traced.add((parts[0], parts[1]))
    return traced


def traced_members(spec: dict) -> set[tuple[str, str, str]]:
    """(module, class, member) of every method a per-layer metric is named after."""
    traced = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) >= 4:
            traced.add((parts[0], parts[1], parts[2]))
    return traced


def unconsumed_members(module_path: Path, read, traced) -> list[str]:
    """``Class.member`` for each public method or property of ``module_path``'s
    top-level classes that is neither read as an attribute nor traced."""
    module = module_path.stem
    tree = ast.parse(module_path.read_text(encoding="utf-8"))
    return [f"{cls.name}.{node.name}"
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and node.name not in read and (module, cls.name, node.name) not in traced]


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


@pytest.fixture(scope="module")
def member_consumers():
    read = read_attributes([*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")])
    return read, traced_members(json.loads((ROOT / "BENCHMARK.json").read_text()))


@pytest.mark.parametrize("module", MODULES)
def test_every_public_method_has_a_consumer(module, member_consumers):
    assert unconsumed_members(PACKAGE / f"{module}.py", *member_consumers) == []


def test_scan_flags_an_unread_method(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "class Queue:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def _helper(self):\n"
        "        return 1\n"
        "    def send(self):\n"
        "        return self._helper()\n"
        "    def recv(self):\n"
        "        return 'recv'\n"
        "    def used(self):\n"
        "        return 2\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 3\n"
        "    @property\n"
        "    def depth(self):\n"
        "        return 4\n"
        "def caller(queue, depth):\n"
        "    return queue.used() + queue.size + depth\n"
    )
    read = read_attributes([path])
    assert unconsumed_members(path, read, {("sample", "Queue", "send")}) == [
        "Queue.recv", "Queue.depth"]
    assert unconsumed_members(path, read, set()) == ["Queue.send", "Queue.recv", "Queue.depth"]
