"""Exact simulator and numerical verifier for a phase-frame identification scheme.

Public keys are equatorial qubit states (|0> + e^{2 pi i k/p}|1>)/sqrt(2)
drawn from a discrete phase set; identification runs an entangled
challenge / phase measurement / SWAP-test kernel. The package simulates
honest and adversarial sessions exactly or by seeded sampling, and
verifies the scheme's security arithmetic against independent oracles.
"""

from .adversary import (
    CheatGuessReport,
    EveProver,
    HelstromStrategy,
    build_discrimination_pair,
    cheung_bound,
    cheung_sum_bound,
    eve_attack_round,
    fool_first_attempt_bound,
    helstrom_psucc_oracle,
    helstrom_strategy,
    psucc_formula,
)
from .bounds import (
    SecurityEstimate,
    min_security_parameter,
    p_break_bound,
    union_bound_chain,
)
from .keys import (
    PhaseFraction,
    PrivateKey,
    ProtocolParams,
    averaged_key_operator_discrete,
    generate_private_key,
    phase_average_exponential,
    public_key_state,
    symmetric_mixture,
)
from .protocol import (
    SessionTranscript,
    UsageCounter,
    alice_respond,
    bob_prepare_challenge,
    bob_verify_step,
    run_session,
)
from .qsim import (
    DensityOperator,
    PureState,
    measure_in_basis,
    partial_trace,
    swap_test_pass_probability_mixed,
    tensor,
    trace_norm,
)

__version__ = "0.1.0"
