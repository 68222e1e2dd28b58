"""Security bookkeeping: union-bound chain and break-probability caps.

An adversary who has watched t honest uses can try to fool the
verifier repeatedly, gaining one further public-key copy per attempt
while copies remain in circulation. Attempt l therefore runs with
t + l - 1 copies, and the chance of surviving all s rounds of that
attempt is bounded by fool_first_attempt_bound(t + l - 1, s). Summing
attempts l = 1 .. r - t and bounding every term by the worst one gives

    P_break <= r (1 - 1/(c r))^s

with c = 8. The hardened variant concedes r extra copies to an
adversary who also runs verification sessions against the real key
holder; shifting every attempt by r copies doubles the constant to
c = 16 and nothing else changes.

Both caps are evaluated as exp(s log1p(-1/(c r))), never by raising a
rounded base to the power s, so they keep full precision at large r.
The advisor inverts the cap in closed form plus a bracketed fix-up:
the logarithm gives s to within rounding, and a gallop and bisection
against the evaluated cap settle the last step, in O(log s)
evaluations at worst.

The chain never asks for more than p - 2 copies, where p is the key's
phase modulus (keys.ProtocolParams.p). Attempt l of a chain that
starts at t copies uses t + extra + l - 1 of them, with l <= r - t, so
its largest copy count is

    (t + extra + (r - t) - 1) = extra + r - 1,

the same for every t. The standard variant has extra = 0 and p = r + 1,
which gives r - 1 = p - 2; the hardened variant has extra = r and
p = 2r + 1, which gives 2r - 1 = p - 2. So both moduli sit exactly at
the threshold. That threshold matters because the per-attempt bound
rests on the adversary's continuous phase average: a uniform average
over the key's p phases equals it for every trigonometric degree below
p, and the attacked pair with t copies has degree t + 1, so the
continuous analysis is the discrete key's optimum exactly when
t <= p - 2. Every term of the chain lies in that range.

Apart from the standard library this module imports only ``errors``
and ``tolerances``, so the command line answers ``bounds`` without
loading numpy. ``VARIANTS`` lives here for that reason: ``keys`` and
``cli`` read it from here, and ``cli`` reads ``fool_first_attempt_bound``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import ConfigError, NumericalError, _require_int
from .tolerances import CONSTRUCT_ATOL

__all__ = [
    "VARIANTS",
    "SecurityEstimate",
    "chain_constant",
    "fool_first_attempt_bound",
    "union_bound_chain",
    "p_break_bound",
    "min_security_parameter",
]

VARIANTS = ("standard", "hardened")

_CHAIN_CONSTANT = {"standard": 8, "hardened": 16}


def chain_constant(variant: str) -> int:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return _CHAIN_CONSTANT[variant]


def fool_first_attempt_bound(t: int, s: int) -> float:
    """Bound (1 - 1/(8(t+1)))^s on fooling all s rounds with t copies.

    Evaluated by ``_decay``, the form of the caps below, so the worst
    attempt of a union-bound chain equals its cap, and an s past the
    float range is a ConfigError.
    """
    return _decay(_require_int("t", t, 0) + 1, _require_int("s", s, 1), 8)


class SecurityEstimate(namedtuple(
        "SecurityEstimate", "r s t variant per_attempt chain_sum chain_cap p_break_cap")):
    """Per-attempt fooling bounds and both closed-form caps.

    Fields: the ints r, s and t, the str variant, per_attempt (a tuple
    of floats, one per attempt) and the floats chain_sum, chain_cap and
    p_break_cap. An immutable named tuple rather than a dataclass,
    because ``dataclasses`` imports ``inspect`` and with it ``ast``,
    ``dis`` and ``tokenize``, which the numpy-free command line would
    otherwise not load at all.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.chain_sum > self.chain_cap * (1.0 + CONSTRUCT_ATOL):
            raise NumericalError(
                f"chain sum {self.chain_sum!r} exceeds its cap {self.chain_cap!r}"
            )
        return self


def union_bound_chain(t: int, r: int, s: int, variant: str = "standard") -> SecurityEstimate:
    """Sum the per-attempt fooling bounds for attempts l = 1 .. r - t.

    Requires 0 <= t < r. Attempt l reuses fool_first_attempt_bound with
    t + l - 1 copies (plus r more under the hardened accounting); the
    last attempt has p - 2 of them (see the module docstring).
    """
    c = chain_constant(variant)
    t, r = _require_int("t", t), _require_int("r", r)
    if not 0 <= t < r:
        raise ValueError(f"need 0 <= t < r, got t={t}, r={r}")
    s = _require_int("s", s, 1)
    extra = r if variant == "hardened" else 0
    per = tuple(fool_first_attempt_bound(t + extra + l - 1, s) for l in range(1, r - t + 1))
    chain_cap = (r - t) * _decay(r, s, c)
    return SecurityEstimate(
        r=r,
        s=s,
        t=t,
        variant=variant,
        per_attempt=per,
        chain_sum=math.fsum(per),
        chain_cap=chain_cap,
        p_break_cap=p_break_bound(r, s, variant),
    )


def _decay(r: int, s: int, c: int) -> float:
    """(1 - 1/(c r))^s without rounding the base first.

    Raises ConfigError when c r or s does not fit in a float.
    """
    try:
        return math.exp(s * math.log1p(-1.0 / (c * r)))
    except OverflowError:
        raise ConfigError(
            f"c*r (c={c}) and s must not exceed the float range ({sys.float_info.max:.4g})"
        ) from None


def p_break_bound(r: int, s: int, variant: str = "standard") -> float:
    """Overall break-probability cap r (1 - 1/(c r))^s.

    s = 0 is rejected: a session with no rounds verifies nothing, and
    the empty-product reading would report a vacuous bound of r.
    """
    c = chain_constant(variant)
    r = _require_int("r", r, 1)
    return r * _decay(r, _require_int("s", s, 1), c)


def min_security_parameter(r: int, epsilon: float, variant: str = "standard") -> int:
    """Smallest s with p_break_bound(r, s, variant) <= epsilon.

    Closed form plus bracketed fix-up. The starting point
    s0 = ceil(log(epsilon / r) / log1p(-1/(c r))), taken in logs so
    epsilon / r cannot underflow, is right to within rounding. From s0
    the search gallops outward with doubling steps until it holds a
    failing lo and a passing hi, then bisects to lo + 1 = hi. The
    defining property bound(s*) <= epsilon < bound(s* - 1) is thus
    checked on the evaluated cap itself (the right inequality is vacuous
    at s* = 1), and it holds past 2^53, where neighbouring s share a
    float and the cap is flat over long runs. Any positive epsilon is
    accepted; epsilon >= the s = 1 bound simply returns 1. An epsilon
    no representable s reaches raises ConfigError.
    """
    c = chain_constant(variant)
    r = _require_int("r", r, 1)
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    def fails(s: int) -> bool:
        return p_break_bound(r, s, variant) > epsilon

    try:
        if not fails(1):
            return 1
        s = math.ceil((math.log(epsilon) - math.log(r)) / math.log1p(-1.0 / (c * r)))
    except OverflowError:
        # 1/(c r), or s0 with it, is past the float range: no float s
        # brings the cap down to epsilon
        raise ConfigError(
            f"epsilon={epsilon} is out of reach: at this r the {variant} cap "
            f"needs an s beyond the float range"
        ) from None
    if fails(s):
        lo, step = s, 1
        while fails(lo + step):
            lo, step = lo + step, 2 * step
        hi = lo + step
    else:
        hi, step = s, 1
        while hi - step > 1 and not fails(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(hi - step, 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fails(mid):
            lo = mid
        else:
            hi = mid
    return hi
