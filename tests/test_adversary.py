"""Adversary side: frames, discrimination, attack rounds, combinatorial bounds."""

import dataclasses
import functools
import hashlib
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaseid import adversary
from phaseid.adversary import (
    EveProver,
    attack_round_branches,
    build_discrimination_pair,
    cheung_bound,
    cheung_sum_bound,
    eve_attack_round,
    eve_attack_rounds,
    helstrom_psucc_oracle,
    helstrom_psucc_oracles,
    helstrom_strategy,
    overlap_sum,
    psucc_formula,
    sample_attack_rounds,
)
from phaseid.adversary import (
    _MAX_ORACLE_T,
    _SERIES,
    HelstromStrategy,
    _frame_magnitudes,
    _pair_grid,
    _unit_roots,
)
from phaseid.bounds import fool_first_attempt_bound
from phaseid.errors import DimensionMismatchError, StateValidationError
from phaseid.keys import (
    PhaseFraction,
    PrivateKey,
    ProtocolParams,
    generate_private_key,
    phase_angles,
    public_key_state,
)
from phaseid.protocol import (
    BranchTable,
    bob_prepare_challenge,
    bob_verify_step,
    run_session,
    verify_kept_states,
)
from phaseid import qsim
from phaseid.qsim import DensityOperator, check_density_operators, trace_norm
from phaseid.rng import make_rng
from phaseid.tolerances import CONSTRUCT_ATOL, EIGENVALUE_FLOOR, ZERO_BRANCH_PROB

from conftest import (
    challenge_and_frame,
    frame_vector,
    helstrom_project,
    helstrom_projector_plus,
    record_density_checks,
    recurrence_magnitudes,
    reference_pass_probabilities,
    reference_sampled_records,
)

# Closed-form guessing probabilities for small copy counts:
# t = 2: 1/2 + sqrt(2)/4, t = 3: 1/2 + (3 + 2 sqrt(3))/16.
PSUCC_T2 = 0.5 + math.sqrt(2.0) / 4.0
PSUCC_T3 = 0.5 + (3.0 + 2.0 * math.sqrt(3.0)) / 16.0


def rows_digest(tables) -> str:
    """sha256 of each branch table's probability bytes, then its pass_probability bytes."""
    h = hashlib.sha256()
    for table in tables:
        h.update(table.probability.tobytes())
        h.update(table.pass_probability.tobytes())
    return h.hexdigest()


def attacked_row_digests() -> dict[str, str]:
    """The pinned digests of the attacked rows: every t <= 300 at once, and some t alone."""
    reports = eve_attack_rounds(range(0, 301))
    scalars = np.array([(r.p_pass_exact, r.psucc_strategy) for r in reports]).tobytes()
    digests = {"sweep": rows_digest(report.branches for report in reports),
               "scalars": hashlib.sha256(scalars).hexdigest()}
    for t in (0, 1, 8, 64, 4096, 100_000):
        digests[f"t={t}"] = rows_digest([attack_round_branches(helstrom_strategy(t))])
    return digests


def eve_session_bytes(t: int, mode: str) -> bytes:
    """``to_json_lines()``, joined and ended by newlines, of an Eve session at r = 100, s = 200."""
    params = ProtocolParams(r=100, s=200)
    key = generate_private_key(params, 2024)
    seed = 31 + t if mode == "sampled" else None
    transcript = run_session(params, key, EveProver(helstrom_strategy(t)), mode=mode, seed=seed)
    return ("\n".join(transcript.to_json_lines()) + "\n").encode()


# sha256 of ``eve_session_bytes``: Eve sessions in the benchmark's shape,
# recorded before the round contract took its key-free, one-row form.
EVE_SESSION_PINS = [
    (1, "exact", "88f50e3ca226287eba2651babb51747a8e1c019ee706b8523821e5cd3435880f"),
    (1, "sampled", "f889c2ca8e6b3752209b53b1a5f32369d003a99ebe7871e50b3556de43fbe731"),
    (3, "exact", "7aac50d96d23b7239dd7c41e864262b68dfaf1c11391303244b221e02a67ab43"),
    (3, "sampled", "5870289f9ab4538eaa5f220785159a2054e9fb3bfd7c689bd035e0899a598191"),
    (8, "exact", "b1cfcf0364bec2a3973cd46679a40c60d1648e3953fef3fa32101aab156df06e"),
    (8, "sampled", "36a441ed4d57f4f6269fde75312c0916b726d94672af166fc5e7dd09e6b368db"),
]


@functools.cache
def correctly_rounded_overlap_sum(t: int) -> float:
    """S(t) correctly rounded, from an integer enclosure finer than the library's.

    Each isqrt(C(t,m) C(t,m+1) 2^640) is its term times 2^320, less at
    most 1, so the roots' sum R puts S(t) 2^(t+320) in [R, R + t]; both
    ends must round to one float.
    """
    roots = sum(math.isqrt((math.comb(t, m) * math.comb(t, m + 1)) << 640) for m in range(t))
    low, high = (Fraction(end, 1 << (t + 320)) for end in (roots, roots + t))
    assert float(low) == float(high), t
    return float(low)


def _binomial(alpha: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for k in range(n):
        out = out * (alpha - k) / (k + 1)
    return out


def series_coefficients(order: int) -> list[Fraction]:
    """a_1..a_order of 1 - S(t) ~ sum_k a_k t^-k, derived with fractions alone.

    S(t) = E sqrt((t - M)/(M + 1)) with M ~ Bin(t, 1/2). With h = 1/t and
    y = 2(M - t/2) h the root is (1 - y)^(1/2) (1 + y + 2h)^(-1/2), a
    double binomial series in y and h. E y^i = 2^i h^i mu_i(t), where the
    central moment mu_i is a polynomial in t of degree at most i/2, built
    from the cumulants t kappa_k, kappa_k = k! [u^k] log cosh(u/2). So
    y^i h^j reaches t^-k for k >= j + i/2 only, and moments up to
    2 * order give every term of order at most ``order``.
    """
    n = 2 * order
    # log cosh(u/2) = log(1 + v), v = sum_{k >= 1} (u/2)^(2k)/(2k)!
    v = [Fraction(0) if k % 2 or k == 0 else Fraction(1, 2**k * math.factorial(k))
         for k in range(n + 1)]
    log, power = [Fraction(0)] * (n + 1), [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        power = [sum(power[i] * v[d - i] for i in range(d + 1)) for d in range(n + 1)]
        log = [a + Fraction((-1) ** (k + 1), k) * b for a, b in zip(log, power)]
    kappa = [math.factorial(k) * c for k, c in enumerate(log)]
    # moments from cumulants: mu_i = sum_k C(i-1, k-1) (t kappa_k) mu_{i-k}
    moments = [[Fraction(1)]]
    for i in range(1, n + 1):
        poly = [Fraction(0)] * (i + 1)
        for k in range(1, i + 1):
            for power_of_t, c in enumerate(moments[i - k]):
                poly[power_of_t + 1] += math.comb(i - 1, k - 1) * kappa[k] * c
        moments.append(poly)
    # coefficient of y^i h^j: (1 - y)^(1/2) times (y + 2h)^b's term y^(b-j) (2h)^j
    root = {}
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for j in range(min(b, order) + 1):
                term = (_binomial(Fraction(1, 2), a) * (-1) ** a * _binomial(Fraction(-1, 2), b)
                        * math.comb(b, j) * 2**j)
                root[a + b - j, j] = root.get((a + b - j, j), 0) + term
    coefficients = [Fraction(0)] * (order + 1)
    for (i, j), c in root.items():
        for power_of_t, mu in enumerate(moments[i]):
            k = i + j - power_of_t
            if 1 <= k <= order:
                coefficients[k] -= c * 2**i * mu
    return coefficients[1:]


class TestCombinatorics:
    def test_overlap_sum_zero_copies(self):
        assert overlap_sum(0) == 0.0

    def test_overlap_sum_rejects_negative(self):
        with pytest.raises(ValueError):
            overlap_sum(-1)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: eve_attack_round(2.5), id="eve_attack_round"),
        pytest.param(lambda: eve_attack_rounds([1, 2.0]), id="eve_attack_rounds"),
        pytest.param(lambda: overlap_sum(True), id="overlap_sum"),
        pytest.param(lambda: helstrom_strategy(np.float64(3.0)), id="helstrom_strategy"),
        pytest.param(lambda: HelstromStrategy(2.5), id="HelstromStrategy"),
        pytest.param(lambda: cheung_bound("2"), id="cheung_bound"),
    ])
    def test_copy_counts_must_be_integers(self, call):
        # a copy count is refused, not truncated: 2.5 is not t = 2, True not t = 1
        with pytest.raises(ValueError, match="t must be an integer"):
            call()

    def test_numpy_integer_copy_counts_are_copy_counts(self):
        assert overlap_sum(np.int64(5)) == overlap_sum(5)
        assert eve_attack_round(np.uint8(3)).p_pass_exact == eve_attack_round(3).p_pass_exact
        assert type(HelstromStrategy(np.int64(3)).t) is int

    def test_overlap_sum_matches_integer_binomials(self):
        # independent of the frame recurrence: exact big-integer binomials,
        # one rounding per term, summed exactly
        for t in range(129):
            want = math.fsum(math.sqrt(float(math.comb(t, m) * math.comb(t, m + 1)))
                             for m in range(t)) / 2**t
            assert abs(overlap_sum(t) - want) <= 1e-15, t


class TestPsuccFormula:
    def test_frozen_values(self):
        assert psucc_formula(0) == pytest.approx(0.5, abs=1e-15)
        assert psucc_formula(1) == pytest.approx(0.75, abs=1e-15)
        assert psucc_formula(2) == pytest.approx(PSUCC_T2, abs=1e-15)
        assert psucc_formula(3) == pytest.approx(PSUCC_T3, abs=1e-15)

    def test_monotone_in_copies(self):
        vals = [psucc_formula(t) for t in range(81)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_matches_fifty_digit_references(self):
        # 50-digit sums of the closed form, written out as literals
        references = {
            10: "0.97524289667510288192574902406586665358",
            10**3: "0.99975006228085312822726892126600976009",
            10**4: "0.99997500062478121052359903048431164907",
            10**5: "0.99999750000624978124605445486857165285",
            10**6: "0.99999975000006249978124960546642381389",
        }
        for t, digits in references.items():
            want = Fraction(Decimal(digits))
            assert abs(Fraction(psucc_formula(t)) - want) <= Fraction(2e-16) * want, t

    def test_approaches_one_from_below(self):
        # squeezed between 1 - 1/(2t) (roughly) and the 1 - 1/(4(t+1)) cap
        assert psucc_formula(200) < 1.0
        assert psucc_formula(200) > 0.998


class TestOverlapSumRoutes:
    def test_integer_route_is_correctly_rounded_up_to_the_cap(self):
        # its enclosure never straddles a rounding boundary (NumericalError
        # otherwise), and gives the float of a finer, independent enclosure
        adversary._overlap_sum.cache_clear()
        for t in range(_MAX_ORACLE_T + 1):
            assert overlap_sum(t) == correctly_rounded_overlap_sum(t), t

    def test_series_is_within_an_ulp_above_the_cap(self):
        for t in [*range(_MAX_ORACLE_T + 1, 401), 1000, 2000]:
            want = correctly_rounded_overlap_sum(t)
            assert abs(overlap_sum(t) - want) <= math.ulp(want), t

    def test_series_coefficients_are_derived(self):
        assert [Fraction(a) for a in _SERIES] == series_coefficients(8)

    @pytest.mark.parametrize("t", [10**7, 2**63 - 1, 10**400],
                             ids=["10**7", "2**63-1", "10**400"])
    def test_series_takes_any_copy_count(self, t):
        # O(1) above the cap: no array of length t, whatever t is
        tracemalloc.start()
        try:
            value = overlap_sum(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.5 < value <= 1.0
        assert peak < 2**14


class TestCheungBounds:
    def test_equality_at_one_copy(self):
        assert cheung_sum_bound(1) == pytest.approx(overlap_sum(1), abs=1e-15)
        assert overlap_sum(1) == pytest.approx(0.5, abs=1e-15)

    def test_dominates_overlap_sum(self):
        for t in range(1, 65):
            assert overlap_sum(t) <= cheung_sum_bound(t) + 1e-12

    def test_dominates_psucc(self):
        for t in range(1, 65):
            assert psucc_formula(t) <= cheung_bound(t) + 1e-12
            assert cheung_bound(t) < 1.0

    def test_induced_pass_cap(self):
        # (1 + psucc)/2 inherits the 1 - 1/(8(t+1)) ceiling
        for t in range(1, 65):
            induced = 0.5 * (1.0 + psucc_formula(t))
            assert induced <= 1.0 - 1.0 / (8.0 * (t + 1)) + 1e-12

    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            cheung_bound(0)
        with pytest.raises(ValueError):
            cheung_sum_bound(0)

    def test_fool_bound_values(self):
        assert fool_first_attempt_bound(1, 1) == pytest.approx(0.9375, abs=1e-15)
        assert fool_first_attempt_bound(1, 16) == pytest.approx(
            0.3560741304517928, abs=1e-15
        )

    def test_fool_bound_rejects_bad_s(self):
        with pytest.raises(ValueError):
            fool_first_attempt_bound(1, 0)


class TestFrames:
    def test_zero_copy_frame_is_scalar(self):
        np.testing.assert_allclose(frame_vector(0, 1.3), [1.0], atol=1e-15)

    def test_one_copy_amplitudes(self):
        inv = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(frame_vector(1, 0.0), [inv, inv], atol=1e-15)

    def test_two_copy_amplitudes(self):
        inv = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(frame_vector(2, 0.0), [0.5, inv, 0.5], atol=1e-15)

    def test_phase_winds_with_weight(self):
        angle = 0.7
        vec = frame_vector(3, angle)
        ref = frame_vector(3, 0.0)
        np.testing.assert_allclose(
            vec, ref * np.exp(1j * angle * np.arange(4)), atol=1e-12
        )

    @pytest.mark.parametrize("t", [1, 8, 64, 256])
    def test_phases_equal_the_complex_exponential(self, t):
        # cos + i sin of the real exponent against np.exp on the imaginary one,
        # for one angle and for the oracle's grid
        grid = _pair_grid(t)
        for angle in (0.7, phase_angles(np.arange(1, grid + 1), grid)):
            want = _frame_magnitudes(t) * np.exp(1j * np.multiply.outer(angle, np.arange(t + 1)))
            got = frame_vector(t, angle)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_normalized_for_large_t(self):
        for t in (10, 51, 120, 5000, 10**4, 10**5):
            assert np.linalg.norm(frame_vector(t, 0.4)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_recurrence_agrees_with_binomials_up_to_the_cap(self):
        # frame_vector's two sources of magnitudes, where both apply
        for t in range(_MAX_ORACLE_T + 1):
            np.testing.assert_allclose(recurrence_magnitudes(t), _frame_magnitudes(t),
                                       rtol=0.0, atol=1e-15, err_msg=str(t))

    def test_attacked_round_holds_no_frame_length_temporaries(self):
        # the closed-form kept states read S(t) alone, and S(t) above the
        # oracle's cap is a series: no array of length t at all
        _frame_magnitudes.cache_clear()
        adversary._overlap_sum.cache_clear()
        tracemalloc.start()
        try:
            eve_attack_round(200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_large_t_sweep_keeps_no_magnitudes(self):
        # a sweep over large copy counts builds and keeps no magnitudes
        # (0.8 MB each near t = 1e5 if it did)
        _frame_magnitudes.cache_clear()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            eve_attack_rounds(range(10**5, 10**5 + 16))
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 2 * 2**20

    def test_cached_magnitudes_reject_writes(self):
        mags = _frame_magnitudes(4)
        with pytest.raises(ValueError):
            mags[0] = 0.0
        np.testing.assert_array_equal(mags, [0.25, 0.5, math.sqrt(6.0) / 4.0, 0.5, 0.25])


class TestDiscriminationPair:
    def test_zero_copies_pair_is_identical(self):
        # with no reference copies the averaged challenge qubit is
        # maximally mixed for either response, so nothing distinguishes
        rho_plus, rho_minus = build_discrimination_pair(0)
        want = np.eye(2) / 2.0
        np.testing.assert_allclose(rho_plus, want, atol=1e-12)
        np.testing.assert_allclose(rho_minus, want, atol=1e-12)

    @pytest.mark.parametrize("t", [0, 1, 5, 32])
    def test_pair_is_one_read_only_real_stack(self, t):
        pair = build_discrimination_pair(t)
        assert pair.shape == (2, 2 * t + 2, 2 * t + 2)
        assert pair.dtype == np.float64
        assert not pair.flags.writeable

    @pytest.mark.parametrize("t", range(0, 6))
    def test_grid_refinement_is_stable(self, t):
        # the pair's grid already integrates the trig polynomials exactly;
        # a grid of 4t + 9 points, about twice as fine, must not move any entry
        grid = 4 * t + 9
        angles = phase_angles(np.arange(1, grid + 1), grid)
        for sign, rho in zip((+1, -1), build_discrimination_pair(t)):
            vecs = challenge_and_frame(angles, t, sign).reshape(grid, 2 * (t + 1))
            finer = vecs.T @ vecs.conj() / grid
            assert np.max(np.abs(rho - finer)) < 1e-12

    def test_one_grid_average_equals_both_sign_averages(self):
        # The pair against the definition, written out for each sign.
        # Real route: one table of the grid's unit roots, indexed by the
        # integer (b + w) k mod g and scaled by the frame magnitudes,
        # gives C and S; the real Gram [C; S]^T [C; S] over 2g (the
        # received qubit's 1/sqrt 2, squared) is the sign's operator bit
        # for bit, and the imaginary part (M - M^T)/2g, M = S^T C, is
        # within CONSTRUCT_ATOL. Complex route: the explicit grid sum of
        # phase_bases (x) frame, real to CONSTRUCT_ATOL and equal to the
        # operator entrywise within 1e-15.
        for t in range(1, 65):
            grid = _pair_grid(t)
            pair = build_discrimination_pair(t)
            assert pair.dtype == np.float64
            root_angles = phase_angles(np.arange(grid), grid)
            charge = np.add.outer(np.arange(2), np.arange(t + 1)).reshape(-1)
            power = np.multiply.outer(np.arange(1, grid + 1), charge) % grid
            angles = phase_angles(np.arange(1, grid + 1), grid)
            for sign, rho in zip((+1, -1), pair):
                amp = np.concatenate([_frame_magnitudes(t), sign * _frame_magnitudes(t)])
                cos, sin = (table[power] * amp for table in (np.cos(root_angles), np.sin(root_angles)))
                skew = sin.T @ cos
                assert np.abs(skew - skew.T).max() / (2 * grid) <= CONSTRUCT_ATOL
                stacked = np.concatenate([cos, sin])
                real = stacked.T @ stacked / (2 * grid)
                assert np.array_equal(rho.view(np.int64), real.view(np.int64)), (t, sign)
                vecs = challenge_and_frame(angles, t, sign).reshape(grid, 2 * (t + 1))
                total = vecs.T @ vecs.conj()
                assert np.abs(total.imag).max() / grid <= CONSTRUCT_ATOL
                np.testing.assert_allclose(rho, total.real / grid, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("p,aliased", [(3, 0.978553), (5, 0.962436), (11, 0.975731)])
    def test_key_phase_average_is_the_formula_up_to_p_minus_2(self, p, aliased):
        # The pair averaged over a key's own p phases 2 pi k/p. Its
        # entries have trig degree <= t + 1, which the p-point average
        # integrates exactly while t <= p - 2: there the Helstrom value
        # is the formula's. At t = p - 1 the end sectors |0,0> and |1,t>
        # alias and the value exceeds it.
        angles = phase_angles(np.arange(1, p + 1), p)
        for t in range(p):
            plus, minus = (
                vecs.T @ vecs.conj() / p
                for vecs in (challenge_and_frame(angles, t, sign).reshape(p, 2 * (t + 1))
                             for sign in (+1, -1)))
            value = 0.5 + 0.25 * trace_norm(plus - minus)
            if t <= p - 2:
                assert value == pytest.approx(psucc_formula(t), abs=1e-12), (p, t)
            else:
                assert value == pytest.approx(aliased, abs=5e-7)
                assert value > psucc_formula(t) + 1e-4

    def test_rho_minus_checks_as_rho_plus_does_at_every_t(self):
        # The pair validates rho+ alone; its docstring proves every check
        # gives the same result on rho- = D rho+ D, D = Z (x) I. At every t
        # the oracle takes: rho- is D rho+ D, the Hermitian gaps and the
        # diagonals are bit for bit equal, the shifted Cholesky
        # certificate completes on rho+, and the factor of rho- is D L D
        # with L that of rho+, pivots bit for bit equal.
        for t in range(_MAX_ORACLE_T + 1):
            plus, minus = build_discrimination_pair(t)
            sign = np.repeat([1.0, -1.0], t + 1)
            flip = np.multiply.outer(sign, sign)
            assert np.array_equal(minus, flip * plus), t
            for a, b in ((np.abs(minus - minus.T), np.abs(plus - plus.T)),
                         (np.diagonal(minus), np.diagonal(plus))):
                assert np.array_equal(a.view(np.int64), b.view(np.int64)), t
            assert qsim._above_floor_certified(plus[None]), t
            shift = (EIGENVALUE_FLOOR + qsim._cholesky_margin(plus.shape[0])) * np.eye(2 * t + 2)
            low_plus = np.linalg.cholesky(plus - shift)
            low_minus = np.linalg.cholesky(minus - shift)
            assert np.array_equal(low_minus, flip * low_plus), t
            assert np.array_equal(np.diagonal(low_minus).view(np.int64),
                                  np.diagonal(low_plus).view(np.int64)), t
            check_density_operators(minus)

    @pytest.mark.parametrize("scale, fault", [(1.01, "trace"), (math.nan, "must be finite")])
    def test_faulty_rho_plus_is_refused(self, monkeypatch, scale, fault):
        real = adversary._frame_magnitudes
        monkeypatch.setattr(adversary, "_frame_magnitudes", lambda t: real(t) * scale)
        with pytest.raises(StateValidationError, match=fault):
            build_discrimination_pair(3)

    def test_pair_states_differ_with_copies(self):
        rho_plus, rho_minus = build_discrimination_pair(2)
        assert np.max(np.abs(rho_plus - rho_minus)) > 0.1


class TestHelstrom:
    def test_strategy_is_its_copy_count(self):
        # t fixes the measurement and its psucc, so the strategy holds t alone
        assert [field.name for field in dataclasses.fields(HelstromStrategy)] == ["t"]
        assert helstrom_strategy(3) == HelstromStrategy(3)

    @pytest.mark.parametrize("t", range(0, 9))
    def test_strategy_matches_formula(self, t):
        # the strategy's psucc is read off its measurement: P+ for its t on
        # the explicit pair, 1/2 tr(P+ rho+) + 1/2 tr(P- rho-), against the
        # closed form and the attack round's recorded psucc
        strat = helstrom_strategy(t)
        rho_plus, rho_minus = build_discrimination_pair(strat.t)
        proj = helstrom_projector_plus(strat.t)
        eye = np.eye(proj.shape[0])
        psucc = 0.5 * float(np.trace(proj @ rho_plus).real
                            + np.trace((eye - proj) @ rho_minus).real)
        assert psucc == pytest.approx(psucc_formula(t), abs=1e-9)
        assert eve_attack_round(strat.t).psucc_strategy == psucc_formula(t)

    @pytest.mark.parametrize("t", range(0, 9))
    def test_oracle_matches_formula(self, t):
        # trace-norm route vs closed-form route, built independently
        assert helstrom_psucc_oracle(t) == pytest.approx(psucc_formula(t), abs=1e-9)

    def test_block_svd_oracle_equals_dense_trace_norm(self):
        # ||rho+ - rho-||_1 = 4 sum_i sigma_i(B), B the off-diagonal block
        # of rho+, against the trace norm of the dense gap
        for t in range(1, 65):
            rho_plus, rho_minus = build_discrimination_pair(t)
            dense = 0.5 + 0.25 * trace_norm(rho_plus - rho_minus)
            assert abs(helstrom_psucc_oracle(t) - dense) <= 1e-14, t

    def test_valid_oracle_call_makes_no_eigendecomposition(self, monkeypatch):
        # rho+ is validated, by one check that the Cholesky certificate
        # passes (rho- shares its result), and the trace norm comes from
        # the block SVD
        calls, validated = [], []
        eigvalsh, check = np.linalg.eigvalsh, adversary.check_density_operators

        def counted_check(stack):
            validated.append(np.shape(stack))
            check(stack)

        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        monkeypatch.setattr(adversary, "check_density_operators", counted_check)
        assert helstrom_psucc_oracle(32) == pytest.approx(psucc_formula(32), abs=1e-14)
        assert calls == []
        assert validated == [(66, 66)]

    def test_oracle_table_is_each_one_t_oracle_bit_for_bit(self):
        # the table's one trig pass changes no bit: each value is its one-t
        # call, and 1/2 + the singular values of the returned rho+'s block
        values = helstrom_psucc_oracles(range(65))
        assert [v.hex() for v in values] == [
            helstrom_psucc_oracle(t).hex() for t in range(65)]
        for t, value in enumerate(values):
            block = build_discrimination_pair(t)[0][: t + 1, t + 1:]
            assert value == 0.5 + float(np.linalg.svd(block, compute_uv=False).sum()), t
        assert helstrom_psucc_oracles([]) == []

    def test_each_grid_slice_of_the_shared_roots_is_its_own_table(self):
        # every grid up to the oracle's cap, in one table: each slice is bit
        # for bit that grid's table alone, which is cos and sin of its angles
        grids = [_pair_grid(t) for t in range(_MAX_ORACLE_T + 1)]
        roots = _unit_roots(grids)
        assert roots.shape == (2, sum(grids))
        end = 0
        for grid in grids:
            start, end = end, end + grid
            alone = _unit_roots([grid])
            assert roots[:, start:end].tobytes() == alone.tobytes(), grid
            angles = phase_angles(np.arange(grid), grid)
            assert alone.tobytes() == np.stack([np.cos(angles), np.sin(angles)]).tobytes()

    def test_every_t_is_range_checked_before_any_oracle_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(adversary, "_unit_roots", lambda grids: calls.append(grids))
        for bad in (_MAX_ORACLE_T + 1, -1, 2.5):
            with pytest.raises(ValueError, match="^t must be"):
                helstrom_psucc_oracles([1, 2, bad])
        assert calls == []

    def test_projector_rank(self):
        proj = helstrom_projector_plus(2)
        rank = int(round(float(np.trace(proj).real)))
        dim = proj.shape[0]
        assert 0 < rank < dim

    def test_projector_hermitian(self):
        proj = helstrom_projector_plus(3)
        assert np.max(np.abs(proj - proj.conj().T)) < 1e-10

    def test_sector_projector_is_optimal_for_dense_pair(self):
        # the explicit pair and its trace norm are the independent oracle:
        # tr(P+ (rho+ - rho-)) reaches (1/2)||rho+ - rho-||_1 only for a
        # Helstrom-optimal projector
        for t in range(0, 65):
            rho_plus, rho_minus = build_discrimination_pair(t)
            gap = rho_plus - rho_minus
            proj = helstrom_projector_plus(t)
            assert np.max(np.abs(proj @ proj - proj)) <= 1e-12
            assert float(np.trace(proj @ gap).real) == pytest.approx(
                0.5 * trace_norm(gap), abs=1e-9
            )

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 8, 64])
    def test_projector_commutes_with_phase_rotation(self, t):
        # R(theta) = diag(e^{i(b+w) theta}) over (received b, frame weight w)
        proj = helstrom_projector_plus(t)
        charge = np.add.outer(np.arange(2), np.arange(t + 1)).reshape(-1)
        for theta in (0.3, 1.0, 2.0 * math.pi / 5.0):
            rot = np.diag(np.exp(1j * theta * charge))
            assert np.max(np.abs(proj @ rot - rot @ proj)) <= 1e-12

    def test_strategy_beyond_oracle_cap(self):
        t = 10_000
        report = eve_attack_round(t)
        assert report.psucc_strategy == psucc_formula(t)
        assert report.p_pass_exact == pytest.approx(0.5 * (1.0 + psucc_formula(t)), abs=1e-9)


class TestAttackRounds:
    def test_branch_probabilities_sum_to_one(self):
        table = attack_round_branches(helstrom_strategy(2))
        assert table.rounds == 1
        assert table.probability[0].sum() == pytest.approx(1.0, abs=1e-12)
        assert ((0.0 <= table.pass_probability) & (table.pass_probability <= 1.0)).all()

    def test_one_copy_round_value(self):
        report = eve_attack_round(1)
        assert report.p_pass_exact == pytest.approx(0.875, abs=1e-9)

    def test_two_copy_round_value(self):
        report = eve_attack_round(2)
        assert report.p_pass_exact == pytest.approx(0.9267766952966369, abs=1e-12)

    @pytest.mark.parametrize("t", range(1, 7))
    def test_cheat_equals_guess(self, t):
        report = eve_attack_round(t)
        assert report.p_pass_exact == pytest.approx(
            0.5 * (1.0 + psucc_formula(t)), abs=1e-9
        )
        assert report.psucc_strategy == pytest.approx(psucc_formula(t), abs=1e-9)

    @pytest.mark.parametrize("t", range(1, 7))
    def test_round_bound_holds(self, t):
        report = eve_attack_round(t)
        assert report.p_pass_exact <= 1.0 - 1.0 / (8.0 * (t + 1)) + 1e-12

    def test_stacked_rows_equal_one_t_rows_bit_for_bit(self):
        # one verifier pass over every t gives each t the row, and the
        # exact pass probability, of its own pass
        ts = [*range(0, 301), 1000, 4096, 100_000]
        reports = eve_attack_rounds(ts)
        assert [report.t for report in reports] == ts
        for t, stacked in zip(ts, reports):
            alone = eve_attack_round(t)
            assert stacked.branches.rounds == 1
            for name in ("probability", "pass_probability"):
                got, want = getattr(stacked.branches, name), getattr(alone.branches, name)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (t, name)
            assert stacked.p_pass_exact.hex() == alone.p_pass_exact.hex(), t
            assert stacked.psucc_strategy.hex() == alone.psucc_strategy.hex(), t

    def test_rows_are_built_from_the_correctly_rounded_overlap_sum(self, monkeypatch):
        # The proof behind the pinned literals below: every row for t <= 300
        # is built from kept states whose off-diagonal entries are +-S/4,
        # with S the exact overlap sum correctly rounded.
        seen = []

        def spy(kept, angles):
            seen.append(kept.copy())
            return verify_kept_states(kept, angles)

        monkeypatch.setattr(adversary, "verify_kept_states", spy)
        eve_attack_rounds(range(0, 301))
        (kept,) = seen
        for t in range(0, 301):
            want = correctly_rounded_overlap_sum(t)
            assert 4.0 * kept[t, 0, 0, 1] == want and -4.0 * kept[t, 1, 0, 1] == want, t

    def test_rows_are_pinned_bit_for_bit(self):
        # ``attacked_row_digests``: the sweep's two literals were recorded
        # once S(t) was correctly rounded (the test above), the per-t ones
        # from the code that still built one-t rows apart from sweeps; a
        # changed bit in any row fails here.
        assert attacked_row_digests() == {
            "sweep": "d9cd8e2af0ec2b984b12f880314897206c3600b450a465a0336c9c9201037b98",
            "scalars": "8cb5e053d6c94f2550dfb3e53a0f65f634efbde96ac393b749b7294810f254c7",
            "t=0": "deae2229d156a3a162f3d6da12372432ce339e856700aac56a42536a6b349b88",
            "t=1": "2366809b70122f93f5c8319ee33d3ef537b569a40d67ee4262cb43951626521a",
            "t=8": "bf770ee2524186bde2ddbbca72ae377d201544c627a21e98522721e04c6e1e1b",
            "t=64": "94da419ef388b8c49ed4cb43bd75b375b99f1aa511e3e5c049efc5ff54595757",
            "t=4096": "f7b3054531a306e243d213c980f63779329713f1a4edc5c7a508e464c5d5b529",
            "t=100000": "4f8b2a1470c06d569aa5671c0850aa2d0e5598b9da64428c333ded422a939cac",
        }

    def test_stacked_rows_are_read_only_views(self):
        reports = eve_attack_rounds([1, 2, 3])
        for report in reports:
            assert not report.branches.probability.flags.writeable
            assert not report.branches.pass_probability.flags.writeable
        assert reports[0].branches.probability.base is reports[2].branches.probability.base

    def test_no_copy_counts_make_no_reports(self):
        assert eve_attack_rounds([]) == []

    def test_zero_copy_round_is_blind(self):
        report = eve_attack_round(0)
        assert report.psucc_strategy == pytest.approx(0.5, abs=1e-9)
        assert report.p_pass_exact == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize("t", range(0, 9))
    def test_single_evaluation_equals_grid_average(self, t):
        # 4(t+3) angles lie strictly above the worst-case trig degree 2t+4
        # of the round algebra, so this grid average is the exact one
        strat = helstrom_strategy(t)
        grid = 4 * (t + 3)
        p_pass = 0.0
        for k in range(1, grid + 1):
            for prob, pass_prob in _scalar_attack_round(strat, PhaseFraction(k, grid)):
                p_pass += prob * pass_prob
        assert eve_attack_round(t).p_pass_exact == pytest.approx(
            p_pass / grid, abs=1e-12
        )


def _scalar_attack_round(strategy, x):
    """Reference: one attacked round with the scalar kernel steps.

    Returns ((prob, pass), (prob, pass)) for response bits 0 and 1.
    """
    angle = x.angle()
    psi = bob_prepare_challenge().as_tensor()[:, :, None] * frame_vector(
        strategy.t, angle)
    rows = []
    for bit, collapsed in enumerate(helstrom_project(strategy.t, psi)):
        flat = collapsed.reshape(2, -1)
        kept = flat @ flat.conj().T
        prob = float(np.trace(kept).real)
        if prob < ZERO_BRANCH_PROB:
            rows.append((prob, 0.0))
            continue
        rho = DensityOperator((2,), kept / prob)
        rows.append((prob, bob_verify_step(rho, bit, public_key_state(x))))
    return tuple(rows)


@pytest.mark.parametrize("t", [0, 1, 3, 8])
@given(st.integers(min_value=2, max_value=9), st.data())
@settings(max_examples=15, deadline=None)
def test_attack_table_matches_scalar_rounds(t, p, data):
    ks = data.draw(st.lists(st.integers(min_value=1, max_value=p), min_size=1, max_size=8))
    xs = [PhaseFraction(k, p) for k in ks]
    strategy = helstrom_strategy(t)
    row = attack_round_branches(strategy)
    table = EveProver(strategy).round_branches()
    assert table.rounds == 1
    assert table.probability.tolist() == row.probability.tolist()
    assert table.pass_probability.tolist() == row.pass_probability.tolist()
    for x in xs:
        for bit, (prob, pass_prob) in enumerate(_scalar_attack_round(strategy, x)):
            assert row.probability[0, bit] == pytest.approx(prob, abs=1e-12)
            assert row.pass_probability[0, bit] == pytest.approx(pass_prob, abs=1e-12)


@pytest.mark.parametrize("t", [0, 1, 3, 8, 64, 4096, 100_000])
def test_every_attacked_branch_state_reaches_the_density_check(monkeypatch, t):
    # One call on a (set, branch, 2, 2) stack: each live branch's kept
    # state and the authentic projector, against the round formed
    # directly at angle 0 from the projected amplitudes, the oracle of
    # the closed-form kept states. At t = 0, P- is zero and bit 1 is
    # not live.
    strategy = helstrom_strategy(t)
    seen = record_density_checks(monkeypatch)
    attack_round_branches(strategy)
    (states,) = seen
    x = PhaseFraction(2, 2)
    assert x.angle() == 0.0
    psi = bob_prepare_challenge().as_tensor()[:, :, None] * frame_vector(t, 0.0)
    sigma = DensityOperator.from_pure(public_key_state(x)).matrix
    want = []
    for collapsed in helstrom_project(strategy.t, psi):
        flat = collapsed.reshape(2, -1)
        kept = flat @ flat.conj().T
        prob = np.trace(kept).real
        if prob >= ZERO_BRANCH_PROB:
            want.append((kept / prob, sigma))
    assert len(want) == (1 if t == 0 else 2)
    assert states.shape == (2, len(want), 2, 2)
    for branch, ops in enumerate(want):
        for got, op in zip(states[:, branch], ops):
            np.testing.assert_allclose(got, op, rtol=0.0, atol=1e-15)


def _reference_attack_table(strategy, angles):
    """Attacked branch table with the kept states formed by matrix products."""
    joint = bob_prepare_challenge().as_tensor()
    psi = joint[None, :, :, None] * frame_vector(strategy.t, angles)[:, None, None, :]
    rows = np.stack(helstrom_project(strategy.t, psi), axis=1).reshape(angles.size, 2, 2, -1)
    kept = rows @ rows.conj().swapaxes(-1, -2)                    # (round, bit, 2, 2)
    prob = np.trace(kept, axis1=-2, axis2=-1).real
    live = prob >= ZERO_BRANCH_PROB
    pass_prob = np.zeros_like(prob)
    pass_prob[live] = reference_pass_probabilities(
        kept[live] / prob[live][:, None, None],
        np.broadcast_to(np.arange(2), prob.shape)[live],
        np.broadcast_to(angles[:, None], prob.shape)[live])
    return prob, pass_prob


@pytest.mark.parametrize("t", [1, 3, 8, 64])
def test_attack_table_matches_matmul_reference(t):
    # the one row, at angle 0, equals the reference evaluated at every angle
    angles = np.concatenate([2.0 * math.pi * np.arange(1, 301) / 300,
                             [PhaseFraction(k, 5).angle() for k in range(1, 6)]])
    row = attack_round_branches(helstrom_strategy(t))
    prob, pass_prob = _reference_attack_table(helstrom_strategy(t), angles)
    np.testing.assert_allclose(np.broadcast_to(row.probability, prob.shape), prob,
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(np.broadcast_to(row.pass_probability, pass_prob.shape),
                               pass_prob, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("t", [1, 3, 8])
@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=999))
@settings(max_examples=15, deadline=None)
def test_eve_sampled_transcript_matches_reference_loop(t, s, seed, key_seed):
    params = ProtocolParams(r=4, s=s)
    key = generate_private_key(params, key_seed)
    strategy = helstrom_strategy(t)
    transcript = run_session(params, key, prover=EveProver(strategy), mode="sampled", seed=seed)
    got = [(rec.j, rec.response_bit, rec.passed) for rec in transcript.records]
    want = reference_sampled_records(key, seed,
                                     lambda x: _scalar_attack_round(strategy, x))
    assert got == want


class TestEveProver:
    def _session(self, ks, t=1):
        params = ProtocolParams(r=2, s=len(ks))
        key = PrivateKey(tuple(PhaseFraction(k, params.p) for k in ks))
        prover = EveProver(helstrom_strategy(t))
        return run_session(params, key, prover=prover, mode="exact")

    def test_exact_session_rejects(self):
        transcript = self._session((1, 2, 3))
        assert transcript.verdict == "reject"
        assert transcript.prover_tag == "helstrom-eve"
        for rec in transcript.records:
            assert 0.5 <= rec.pass_probability < 1.0 - 1e-9

    @pytest.mark.parametrize("t", [1, 2, 3, 8, 64])
    def test_round_value_is_phase_independent(self, t):
        # every key phase k of p gives the same exact pass probability;
        # a measurement that is not phase-covariant makes it swing with k
        p = t + 4
        params = ProtocolParams(r=p - 1, s=p)
        key = PrivateKey(tuple(PhaseFraction(k, p) for k in range(1, p + 1)))
        transcript = run_session(params, key, prover=EveProver(helstrom_strategy(t)),
                                 mode="exact")
        probs = [rec.pass_probability for rec in transcript.records]
        assert max(probs) - min(probs) <= 1e-12
        assert probs[0] == pytest.approx(0.5 * (1.0 + psucc_formula(t)), abs=1e-9)

    def test_round_value_depends_only_on_phase(self):
        a = self._session((1, 2, 3))
        b = self._session((3, 1, 2))
        got_a = sorted(rec.pass_probability for rec in a.records)
        got_b = sorted(rec.pass_probability for rec in b.records)
        assert got_a == pytest.approx(got_b, abs=1e-12)

    @pytest.mark.parametrize("t,mode,digest", EVE_SESSION_PINS)
    def test_session_bytes_are_pinned(self, t, mode, digest):
        assert hashlib.sha256(eve_session_bytes(t, mode)).hexdigest() == digest

    def test_long_session_holds_no_round_index(self):
        # every round reads the adversary's one row, so the exact
        # transcript's index is a zero-strided view: a million rounds hold
        # their one-row table and no per-round array (an intp index would
        # hold 8 MB), and the pinned session bytes are unchanged
        params = ProtocolParams(r=100, s=10**6)
        key = generate_private_key(params, 2024)
        prover = EveProver(helstrom_strategy(3))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            transcript = run_session(params, key, prover, mode="exact")
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 2**20
        assert len(transcript.records) == params.s
        assert transcript.row.strides == (0,) and not transcript.row.flags.writeable
        last = transcript.records[-1]
        assert last.j == params.s
        assert last.pass_probability == eve_attack_round(3).p_pass_exact
        for t, mode, digest in EVE_SESSION_PINS:
            assert hashlib.sha256(eve_session_bytes(t, mode)).hexdigest() == digest, (t, mode)

    def test_sampled_session_runs(self):
        params = ProtocolParams(r=2, s=4)
        key = PrivateKey(tuple(PhaseFraction(k, 3) for k in (1, 2, 3, 1)))
        prover = EveProver(helstrom_strategy(1))
        t1 = run_session(params, key, prover=prover, mode="sampled", seed=21)
        t2 = run_session(params, key, prover=prover, mode="sampled", seed=21)
        assert list(t1.to_json_lines()) == list(t2.to_json_lines())
        assert all(rec.response_bit in (0, 1) for rec in t1.records)
        accept = all(rec.passed for rec in t1.records)
        assert (t1.verdict == "accept") == accept


class TestSampledAttack:
    def test_deterministic_in_seed(self):
        strat = helstrom_strategy(1)
        row = attack_round_branches(strat)
        a = sample_attack_rounds(row, 500, make_rng(3))
        b = sample_attack_rounds(row, 500, make_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_empirical_rate_near_exact(self):
        report = eve_attack_round(2)
        exact = report.p_pass_exact
        n = 100_000
        passes = sample_attack_rounds(report.branches, n, make_rng(424242))
        sigma = math.sqrt(exact * (1.0 - exact) / n)
        assert abs(passes.mean() - exact) < 3.0 * sigma

    def test_rejects_a_table_of_several_rows(self):
        row = attack_round_branches(helstrom_strategy(1))
        session = BranchTable(np.repeat(row.probability, 3, axis=0),
                              np.repeat(row.pass_probability, 3, axis=0))
        with pytest.raises(DimensionMismatchError, match="one attacked row, got 3"):
            sample_attack_rounds(session, 10, make_rng(0))

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError):
            sample_attack_rounds(attack_round_branches(helstrom_strategy(1)), 0, make_rng(0))

    @pytest.mark.parametrize("trials", [1, 7, 99_991, 100_000])
    def test_rate_by_count_is_the_mean_bit_for_bit(self, trials):
        passes = sample_attack_rounds(eve_attack_round(2).branches, trials, make_rng(trials))
        assert (np.count_nonzero(passes) / trials).hex() == float(np.mean(passes)).hex()


_PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@given(low=_PROBABILITIES, pass_low=_PROBABILITIES, pass_high=_PROBABILITIES,
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       trials=st.integers(min_value=1, max_value=3000))
@example(low=0.4, pass_low=0.9, pass_high=0.2, seed=1, trials=1000)
@example(low=0.4, pass_low=0.2, pass_high=0.9, seed=1, trials=1000)
@settings(max_examples=80, deadline=None)
def test_sampled_verdict_equals_the_select_reference(low, pass_low, pass_high, seed, trials):
    # The same draws, in the same order, through np.where's select; the
    # rate by count equals np.mean bit for bit.
    row = BranchTable([[low, 1.0 - low]], [[pass_low, pass_high]])
    passes = sample_attack_rounds(row, trials, make_rng(seed))
    rng = make_rng(seed)
    took_low = rng.random(trials) < low
    u_swap = rng.random(trials)
    want = np.where(took_low, u_swap < pass_low, u_swap < pass_high)
    assert passes.dtype == np.bool_ and passes.shape == (trials,)
    assert np.array_equal(passes, want)
    assert (np.count_nonzero(passes) / trials).hex() == float(np.mean(passes)).hex()


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
@settings(max_examples=80, deadline=None)
def test_fool_bound_monotone(t, s):
    base = fool_first_attempt_bound(t, s)
    assert fool_first_attempt_bound(t + 1, s) >= base  # more copies help
    assert fool_first_attempt_bound(t, s + 1) <= base  # more rounds hurt
    assert 0.0 < base < 1.0
