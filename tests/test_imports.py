"""What importing the package and starting the command line loads.

``import phaseid.cli`` and the commands that need no numerics
(``--help``, ``bounds``) must not load numpy or the numpy modules of the
package: every command line pays for its imports before it does any
work. ``import phaseid`` resolves its public names on first use, with
the same names, objects and star-import set as an eager import.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import phaseid

NUMPY_MODULES = {"numpy", "phaseid.qsim", "phaseid.keys", "phaseid.protocol",
                 "phaseid.adversary"}

# Every name the package bound eagerly, and the module that defines it.
PUBLIC_HOMES = {
    "adversary": ["CheatGuessReport", "EveProver", "HelstromStrategy",
                  "build_discrimination_pair", "cheung_bound", "cheung_sum_bound",
                  "eve_attack_round", "helstrom_psucc_oracle", "helstrom_strategy",
                  "psucc_formula"],
    "bounds": ["SecurityEstimate", "fool_first_attempt_bound", "min_security_parameter",
               "p_break_bound", "union_bound_chain"],
    "keys": ["PhaseFraction", "PrivateKey", "ProtocolParams",
             "averaged_key_operator_discrete", "generate_private_key",
             "public_key_state", "symmetric_mixture"],
    "protocol": ["SessionTranscript", "UsageCounter", "alice_respond",
                 "bob_prepare_challenge", "bob_verify_step", "run_session"],
    "qsim": ["DensityOperator", "PureState", "measure_in_basis", "partial_trace",
             "swap_test_pass_probability_mixed", "tensor", "trace_norm"],
}

# ``from phaseid import *`` under the eager package: the public names and
# the submodules their import loaded.
STAR_NAMES = {name for names in PUBLIC_HOMES.values() for name in names} | {
    "adversary", "bounds", "errors", "keys", "protocol", "qsim", "rng", "tolerances"}


def _run(args):
    """Run ``python -X importtime *args`` on this phaseid; return (process, modules loaded)."""
    src = str(Path(phaseid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    return proc, loaded


@pytest.mark.parametrize("args", [
    ["-c", "import phaseid.cli as cli; cli.build_parser()"],
    ["-m", "phaseid", "--help"],
    ["-m", "phaseid", "bounds", "--help"],
    ["-m", "phaseid", "bounds", "--r", "2", "--s", "83"],
], ids=["parser", "help", "bounds-help", "bounds"])
def test_command_line_loads_no_numpy(args):
    proc, loaded = _run(args)
    assert proc.returncode == 0
    assert "phaseid.cli" in loaded
    assert loaded & NUMPY_MODULES == set()


def test_bad_input_without_numpy_exits_config():
    # no LinAlgError can have been raised, so a ValueError is bad input
    proc, loaded = _run(["-m", "phaseid", "bounds", "--r", "0", "--s", "83"])
    assert proc.returncode == 4
    assert "phaseid: invalid config: r must be >= 1, got 0" in proc.stderr
    assert loaded & NUMPY_MODULES == set()


def test_bare_import_loads_no_submodule():
    proc, loaded = _run(["-c", "import phaseid"])
    assert proc.returncode == 0
    assert "phaseid" in loaded
    assert {name for name in loaded if name.startswith("phaseid.")} == set()


def test_from_import_of_a_submodule_imports_it():
    proc, _ = _run(["-c", "from phaseid import adversary, rng; print(adversary.__name__, "
                          "rng.__name__)"])
    assert proc.returncode == 0
    assert proc.stdout.split() == ["phaseid.adversary", "phaseid.rng"]


@pytest.mark.parametrize("module", sorted(PUBLIC_HOMES))
def test_public_names_are_the_module_objects(module):
    home = getattr(phaseid, module)
    assert isinstance(home, types.ModuleType)
    for name in PUBLIC_HOMES[module]:
        assert getattr(phaseid, name) is getattr(home, name), name


def test_star_import_gives_the_same_names():
    namespace = {}
    exec("from phaseid import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_NAMES
    assert STAR_NAMES <= set(dir(phaseid))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        phaseid.no_such_name
