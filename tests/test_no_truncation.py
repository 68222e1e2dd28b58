"""No function of the package truncates its own arguments with ``int()``.

An ``ast`` scan of ``src/phaseid/*.py``, ``qsim`` aside (its scalar API
converts register indices and dimensions, and is to move into the
tests). No function may pass to ``int()`` one of its own parameters, or
a loop variable that runs over one: the target of a ``for`` loop or a
comprehension whose iterable mentions a parameter (``for p in ps``).
``int(2.5)`` is 2 and ``int(True)`` is 1, so such a call turns bad input
into another number. A count, seed or modulus goes through
``errors._require_int`` instead, which refuses what is not an integer
and converts with ``operator.index``, which never truncates.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phaseid"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "qsim")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _names(node: ast.AST) -> set[str]:
    return {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}


def truncations(path: Path) -> list[str]:
    """``function:line`` of every ``int()`` call on a parameter or a loop variable over one."""
    found = []
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(func, FUNCTIONS):
            continue
        args = func.args
        tainted = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                       args.vararg, args.kwarg) if arg is not None}
        loops = [(node.target, node.iter) for node in ast.walk(func)
                 if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))]
        grew = True
        while grew:                     # a loop over a loop variable runs over the parameter too
            before = len(tainted)
            for target, iterable in loops:
                if _names(iterable) & tainted:
                    tainted |= _names(target)
            grew = len(tainted) > before
        found += [f"{getattr(func, 'name', '<lambda>')}:{node.lineno}"
                  for node in ast.walk(func)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "int"
                  and any(isinstance(arg, ast.Name) and arg.id in tainted for arg in node.args)]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_function_truncates_its_arguments(module):
    assert truncations(PACKAGE / f"{module}.py") == []


def test_scan_flags_a_truncated_parameter(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def bound(t, s):\n"
        "    t = int(t)\n"
        "    return t * s\n"
        "def average(ps, n):\n"
        "    ps = [int(p) for p in ps]\n"
        "    for row in ps:\n"
        "        for p in row:\n"
        "            total = int(p)\n"
        "    return int(n.size) + int(len(ps))\n"
        "def clean(values):\n"
        "    count = len(values)\n"
        "    return int(count)\n"
        "scale = lambda x: int(x)\n"
    )
    assert truncations(path) == ["bound:2", "average:5", "average:8", "<lambda>:13"]
