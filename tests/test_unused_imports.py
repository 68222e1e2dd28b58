"""No module of the package or the tests imports a name it never reads.

An ``ast`` scan: every name an ``import`` binds must be read somewhere
in the same file, as a name or as the base of an attribute. A
package's ``__init__.py`` only re-exports, so it is not scanned, and an
import line marked ``# noqa: F401`` is kept on purpose.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/phaseid", "tests")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(path: Path) -> list[str]:
    """``line: name`` of every imported name that ``path`` never reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("relpath", FILES)
def test_no_unused_import(relpath):
    assert unused_imports(ROOT / relpath) == []


def test_scan_flags_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import json\n"
        "import math\n"
        "import os  # noqa: F401\n"
        "from numpy import linalg\n"
        "def f(x: linalg.LinAlgError):\n"
        "    return math.pi\n"
    )
    assert unused_imports(path) == ["1: json"]
