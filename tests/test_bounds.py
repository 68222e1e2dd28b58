"""Union-bound chain and security-parameter advisor."""

import json
import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseid.bounds import (
    SecurityEstimate,
    chain_constant,
    fool_first_attempt_bound,
    min_security_parameter,
    p_break_bound,
    union_bound_chain,
)
from phaseid.cli import EXIT_CONFIG, EXIT_OK, main
from phaseid.errors import ConfigError, NumericalError
from phaseid.keys import ProtocolParams


def _p_break_fraction(r: int, s: int, c: int) -> Fraction:
    """Exact rational oracle for r (1 - 1/(c r))^s."""
    return Fraction(r) * (1 - Fraction(1, c * r)) ** s


def _p_break_decimal(r: int, s: int, c: int) -> Decimal:
    """50-digit reference for r (1 - 1/(c r))^s."""
    with localcontext() as ctx:
        ctx.prec = 50
        return Decimal(r) * (1 - Decimal(1) / (c * r)) ** s


def _linear_scan(r: int, epsilon: float, variant: str) -> int:
    """The advisor's definition, tried one s at a time."""
    s = 1
    while p_break_bound(r, s, variant) > epsilon:
        s += 1
    return s


def _holds_defining_property(r: int, epsilon: float, variant: str, s_star: int) -> bool:
    return p_break_bound(r, s_star, variant) <= epsilon and (
        s_star == 1 or p_break_bound(r, s_star - 1, variant) > epsilon
    )


class TestChainConstant:
    def test_values(self):
        assert chain_constant("standard") == 8
        assert chain_constant("hardened") == 16

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            chain_constant("plain")


class TestPBreakBound:
    def test_matches_rational_oracle(self):
        want = float(_p_break_fraction(2, 83, 8))  # 2 * (15/16)^83
        assert p_break_bound(2, 83) == pytest.approx(want, abs=1e-15)

    def test_reference_point_is_under_one_percent(self):
        assert p_break_bound(2, 83) <= 0.01
        assert p_break_bound(2, 82) > 0.01

    @pytest.mark.parametrize(
        "r,s,variant,c",
        [(1, 10, "standard", 8), (3, 40, "standard", 8), (5, 7, "hardened", 16)],
    )
    def test_oracle_grid(self, r, s, variant, c):
        want = float(_p_break_fraction(r, s, c))
        assert p_break_bound(r, s, variant) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("r", [10**5, 10**7, 10**9])
    @pytest.mark.parametrize("variant,c", [("standard", 8), ("hardened", 16)])
    def test_matches_decimal_reference_at_large_r(self, r, variant, c):
        # s around the advisor's answer for epsilon = 1e-12, where the cap
        # is about 1e-12; rounding the base 1 - 1/(c r) before raising it
        # to the power s would cost 1e-9 to 1e-6 relative here
        s_star = math.ceil(c * r * math.log(r / 1e-12))
        for s in (s_star - 1, s_star, s_star + 1):
            want = float(_p_break_decimal(r, s, c))
            assert p_break_bound(r, s, variant) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_rejects_zero_rounds(self):
        # an s = 0 session checks nothing; the formula would report the
        # vacuous value r, so it is an error instead
        with pytest.raises(ValueError):
            p_break_bound(2, 0)

    def test_rejects_zero_reuse(self):
        with pytest.raises(ValueError):
            p_break_bound(0, 5)

    def test_halving_scale(self):
        # a ceil(8 r ln 2) increase of s halves the standard bound
        r = 4
        step = math.ceil(8 * r * math.log(2.0))
        for s in (10, 50, 200):
            assert p_break_bound(r, s + step) <= 0.5 * p_break_bound(r, s) + 1e-15


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=400),
    st.sampled_from(["standard", "hardened"]),
)
@settings(max_examples=80, deadline=None)
def test_p_break_monotone_and_hardened_weaker(r, s, variant):
    val = p_break_bound(r, s, variant)
    assert 0.0 < val
    assert p_break_bound(r, s + 1, variant) < val
    # the hardened variant concedes more copies, so its cap is larger
    assert p_break_bound(r, s, "hardened") >= p_break_bound(r, s, "standard")


class TestUnionBoundChain:
    def test_per_attempt_matches_fool_bound(self):
        est = union_bound_chain(t=1, r=4, s=6)
        assert len(est.per_attempt) == 3
        for l, val in enumerate(est.per_attempt, start=1):
            assert val == pytest.approx(fool_first_attempt_bound(1 + l - 1, 6),
                                        abs=1e-15)

    def test_hardened_shifts_every_attempt(self):
        est = union_bound_chain(t=0, r=3, s=5, variant="hardened")
        for l, val in enumerate(est.per_attempt, start=1):
            assert val == pytest.approx(fool_first_attempt_bound(3 + l - 1, 5),
                                        abs=1e-15)

    def test_chain_sum_below_caps(self):
        for variant in ("standard", "hardened"):
            for r in range(1, 7):
                for t in range(0, r):
                    est = union_bound_chain(t=t, r=r, s=9, variant=variant)
                    assert est.chain_sum <= est.chain_cap + 1e-12
                    assert est.chain_cap <= est.p_break_cap + 1e-12

    def test_worst_attempt_equals_cap(self):
        # the last attempt holds the most copies, and its bound is the cap
        for variant in ("standard", "hardened"):
            for r, s in ((10, 100_000), (50, 20_000), (50, 100_000)):
                est = union_bound_chain(t=r - 1, r=r, s=s, variant=variant)
                assert est.per_attempt == (est.chain_cap,)

    @pytest.mark.parametrize("variant", ["standard", "hardened"])
    def test_largest_copy_count_is_p_minus_2(self, variant):
        # the chain stays where the continuous phase average is the key's
        # own: its last attempt holds exactly p - 2 copies
        for r in range(1, 201):
            p = ProtocolParams(r, 1, variant).p
            est = union_bound_chain(t=0, r=r, s=83, variant=variant)
            assert est.per_attempt[-1] == fool_first_attempt_bound(p - 2, 83)

    def test_chain_sum_above_cap_is_internal_failure(self):
        # the cap is a theorem about computed values: breaking it is an
        # internal failure (exit 5), not bad input (exit 4)
        with pytest.raises(NumericalError):
            SecurityEstimate(r=2, s=1, t=0, variant="standard", per_attempt=(0.6, 0.6),
                             chain_sum=1.2, chain_cap=1.0, p_break_cap=1.5)

    def test_full_exposure_is_single_attempt(self):
        est = union_bound_chain(t=3, r=4, s=2)
        assert len(est.per_attempt) == 1

    def test_rejects_t_at_r(self):
        with pytest.raises(ValueError):
            union_bound_chain(t=4, r=4, s=2)

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            union_bound_chain(t=0, r=2, s=0)


class TestAdvisor:
    def test_reference_answer(self):
        assert min_security_parameter(2, 0.01) == 83

    def test_boundary_property(self):
        s_star = min_security_parameter(2, 0.01)
        assert p_break_bound(2, s_star) <= 0.01
        assert p_break_bound(2, s_star - 1) > 0.01

    def test_generous_epsilon_returns_one(self):
        # epsilon at or above the s = 1 bound needs no repetition
        assert min_security_parameter(3, 100.0) == 1

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            min_security_parameter(2, 0.0)

    def test_grows_with_reuse(self):
        answers = [min_security_parameter(r, 0.01) for r in range(1, 8)]
        assert all(b > a for a, b in zip(answers, answers[1:]))

    @pytest.mark.parametrize(
        "r,variant,want",
        [(1000, "standard", 276293), (1000, "hardened", 552604), (3000, "standard", 855280)],
    )
    def test_large_reference_answers(self, r, variant, want):
        assert min_security_parameter(r, 1e-12, variant) == want

    def test_answers_past_two_to_the_53(self):
        # neighbouring s share a float here, so the cap is flat over long
        # runs; the bracket still ends on the first s where it drops
        for r in (10**14, 10**15):
            s_star = min_security_parameter(r, 1e-300)
            assert s_star > 2**53
            assert _holds_defining_property(r, 1e-300, "standard", s_star)

    @pytest.mark.parametrize("r", [10**305, 10**308])
    def test_unreachable_epsilon_is_config_error(self, r):
        # 1/(8 r) ~ 1e-306 puts the s the cap needs beyond the float
        # range; at 1e308, 1/(8 r) itself is past it
        with pytest.raises(ConfigError):
            min_security_parameter(r, 1e-12)

    @pytest.mark.parametrize("variant", ["standard", "hardened"])
    def test_hardened_needs_more_rounds(self, variant):
        s_std = min_security_parameter(3, 0.02, "standard")
        s_hard = min_security_parameter(3, 0.02, "hardened")
        assert s_hard > s_std


@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=1e-6, max_value=0.5, allow_nan=False),
    st.sampled_from(["standard", "hardened"]),
)
@settings(max_examples=60, deadline=None)
def test_advisor_defining_property(r, epsilon, variant):
    s_star = min_security_parameter(r, epsilon, variant)
    assert p_break_bound(r, s_star, variant) <= epsilon
    if s_star > 1:
        assert p_break_bound(r, s_star - 1, variant) > epsilon


@given(
    st.integers(min_value=1, max_value=10**9),
    st.floats(min_value=-300.0, max_value=0.0),
    st.sampled_from(["standard", "hardened"]),
)
@settings(max_examples=300, deadline=10)
def test_advisor_defining_property_at_scale(r, log10_epsilon, variant):
    # the 10 ms deadline fails any search that steps through s one by one
    epsilon = 10.0**log10_epsilon
    s_star = min_security_parameter(r, epsilon, variant)
    assert _holds_defining_property(r, epsilon, variant, s_star)


@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=-14.0, max_value=math.log10(30.0)),
    st.sampled_from(["standard", "hardened"]),
)
@settings(max_examples=40, deadline=None)
def test_advisor_equals_linear_scan(r, log10_epsilon, variant):
    epsilon = 10.0**log10_epsilon
    assert min_security_parameter(r, epsilon, variant) == _linear_scan(r, epsilon, variant)


def _run_bounds(argv, capsys):
    code = main(["bounds", *argv])
    return code, capsys.readouterr().out


def test_cli_hardened_advisor_at_large_r(capsys):
    code, out = _run_bounds(["--r", "100000", "--epsilon", "1e-12", "--variant", "hardened"],
                            capsys)
    assert code == EXIT_OK
    (row,) = json.loads(out)["rows"]
    assert _holds_defining_property(100000, 1e-12, "hardened", row["s_min"])


def test_cli_unreachable_epsilon_exits_config_quickly(capsys):
    start = time.perf_counter()
    code, out = _run_bounds(["--r", str(10**305), "--epsilon", "1e-12"], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert time.perf_counter() - start < 1.0
