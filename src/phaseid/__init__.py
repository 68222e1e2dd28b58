"""Exact simulator and numerical verifier for a phase-frame identification scheme.

Public keys are equatorial qubit states (|0> + e^{2 pi i k/p}|1>)/sqrt(2)
drawn from a discrete phase set; identification runs an entangled
challenge / phase measurement / SWAP-test kernel. The package simulates
honest and adversarial sessions exactly or by seeded sampling, and
verifies the scheme's security arithmetic against independent oracles.

The names below are resolved on first use (PEP 562), so ``import
phaseid`` loads no submodule and no numpy; ``phaseid.run_session`` is
``phaseid.protocol.run_session``, imported when it is first read.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    "adversary": ("CheatGuessReport", "EveProver", "HelstromStrategy",
                  "build_discrimination_pair", "cheung_bound", "cheung_sum_bound",
                  "eve_attack_round", "helstrom_psucc_oracle", "helstrom_strategy",
                  "psucc_formula"),
    "bounds": ("SecurityEstimate", "fool_first_attempt_bound", "min_security_parameter",
               "p_break_bound", "union_bound_chain"),
    "keys": ("PhaseFraction", "PrivateKey", "ProtocolParams",
             "averaged_key_operator_discrete", "generate_private_key",
             "public_key_state", "symmetric_mixture"),
    "protocol": ("SessionTranscript", "UsageCounter", "alice_respond",
                 "bob_prepare_challenge", "bob_verify_step", "run_session"),
    "qsim": ("DensityOperator", "PureState", "measure_in_basis", "partial_trace",
             "swap_test_pass_probability_mixed", "tensor", "trace_norm"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

# ``from phaseid import *`` gives every public name and the submodules that
# an eager import of those names used to load.
__all__ = sorted(_HOME_OF) + [
    "adversary", "bounds", "errors", "keys", "protocol", "qsim", "rng", "tolerances",
]


def __getattr__(name):
    # A submodule name is not in _HOME_OF and so raises AttributeError here;
    # ``from phaseid import adversary`` relies on that to import the submodule.
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
