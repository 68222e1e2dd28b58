"""Exact values do not depend on the CPU: every bit pin, at every numpy dispatch level.

numpy picks its SIMD kernels at run time, up to the highest level the
CPU has, and ``NPY_DISABLE_CPU_FEATURES``, read when numpy is imported,
turns levels off. For each level that numpy's runtime report finds
above its baseline, a child process with that level and every later
one disabled recomputes the digest of every pinned output: the attacked
rows, the Eve sessions, the ``run-honest --out`` pins and every golden
under ``tests/data``. Each child must print the parent's digests.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from phaseid.cli import main

from test_acceptance import CRITERION_8_COMMANDS
from test_adversary import EVE_SESSION_PINS, attacked_row_digests, eve_session_bytes
from test_cli import SESSION_OUTPUT_PINS

TESTS = Path(__file__).parent
DATA = TESTS / "data"

# Each file under tests/data and the argv that makes it: ``--out`` bytes
# for .out, .csv and .json, stdout for the rest.
GOLDEN_ARGV = {
    **{f"criterion8/{name}.out": argv for name, argv in CRITERION_8_COMMANDS.items()
       if name != "psucc-table"},
    "criterion8/verify-identities.stdout": CRITERION_8_COMMANDS["verify-identities"],
    **{f"psucc_table_t64.{fmt}": ["psucc-table", "--t-max", "64", "--format", fmt]
       for fmt in ("csv", "json")},
    **{f"run_attack_t40.{fmt}": ["run-attack", "--t-max", "40", "--s", "83", "--format", fmt]
       for fmt in ("csv", "json")},
    **{f"help/{command}.txt": ([] if command == "phaseid" else [command]) + ["--help"]
       for command in ("phaseid", "keygen", "run-honest", "run-attack", "psucc-table",
                       "bounds", "verify-identities")},
}


def dispatch_levels() -> list[str]:
    """The SIMD levels numpy found on this CPU above its baseline, in its order.

    Read from ``numpy.show_runtime()``'s report (its ``found`` list),
    so no level is named here.
    """
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        np.show_runtime()
    found = re.search(r"'found': (\[[^\]]*\])", report.getvalue())
    return ast.literal_eval(found.group(1)) if found else []


def _cli_bytes(argv, out: Path | None) -> bytes:
    """--out bytes of ``main(argv)``, or its stdout when ``out`` is None."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            code = main(argv if out is None else argv + ["--out", str(out)])
        except SystemExit as exc:                                   # --help
            code = exc.code
    assert code == 0, argv
    return stdout.getvalue().encode() if out is None else out.read_bytes()


def pin_digests() -> dict[str, str]:
    """sha256 of every pinned output, computed in this process."""
    digests = {f"rows {name}": digest for name, digest in attacked_row_digests().items()}
    for t, mode, _ in EVE_SESSION_PINS:
        digests[f"eve t={t} {mode}"] = hashlib.sha256(eve_session_bytes(t, mode)).hexdigest()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        runs = [(" ".join(argv), argv, out) for argv, _ in SESSION_OUTPUT_PINS]
        runs += [(name, argv, out if name.endswith((".out", ".csv", ".json")) else None)
                 for name, argv in GOLDEN_ARGV.items()]
        for name, argv, path in runs:
            digests[name] = hashlib.sha256(_cli_bytes(argv, path)).hexdigest()
    return digests


def test_every_golden_has_its_argv():
    assert set(GOLDEN_ARGV) == {path.relative_to(DATA).as_posix()
                                for path in DATA.rglob("*") if path.is_file()}


@pytest.mark.skipif(not dispatch_levels(), reason="numpy found no level above its baseline")
def test_pins_do_not_depend_on_the_dispatch_level(monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")                 # the help goldens' width
    want = pin_digests()
    levels = dispatch_levels()
    child = ("import json, sys; sys.path[:0] = sys.argv[1:]; import test_cpu_dispatch as m; "
             "print(json.dumps({'found': m.dispatch_levels(), 'digests': m.pin_digests()}))")
    moved = {}                                          # level: the digests that moved
    for i, level in enumerate(levels):
        disabled = levels[i:]
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
        proc = subprocess.run([sys.executable, "-c", child, str(TESTS.parent / "src"), str(TESTS)],
                              env=env, cwd=tmp_path, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert set(report["found"]).isdisjoint(disabled), level
        moved[level] = sorted(name for name, digest in want.items()
                              if report["digests"][name] != digest)
    assert moved == {level: [] for level in levels}
