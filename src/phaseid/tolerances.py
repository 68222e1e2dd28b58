"""Central numerical tolerances.

One constant per class of check; nothing else in the package hardcodes
a tolerance.
"""

# Validity checks applied when states, operators and bases are constructed.
CONSTRUCT_ATOL = 1e-12

# Comparisons between independently computed quantities (oracles, identities).
COMPARE_ATOL = 1e-9

# An exact identity re-checked by ``verify-identities`` passes only when its
# largest deviation lies below this.
IDENTITY_ATOL = 1e-12

# Density-operator eigenvalues may dip this far below zero from rounding.
EIGENVALUE_FLOOR = -1e-10

# Hermiticity slack accepted by the trace-norm routine.
HERMITIAN_ATOL = 1e-10

# Measurement branches below this probability cannot be renormalized.
ZERO_BRANCH_PROB = 1e-15
