"""Adversary side: frames, discrimination, attack rounds, combinatorial bounds."""

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
    helstrom_strategy,
    overlap_sum,
    psucc_formula,
    sample_attack_rounds,
)
from phaseid.adversary import (
    HelstromStrategy,
    _frame_magnitudes,
    _pair_grid,
)
from phaseid.bounds import fool_first_attempt_bound
from phaseid.errors import DimensionMismatchError, NumericalError
from phaseid.keys import (
    PhaseFraction,
    PrivateKey,
    ProtocolParams,
    generate_private_key,
    phase_angles,
    public_key_state,
)
from phaseid.protocol import BranchTable, bob_prepare_challenge, bob_verify_step, run_session
from phaseid.qsim import DensityOperator, trace_norm
from phaseid.rng import make_rng
from phaseid.tolerances import CONSTRUCT_ATOL, ZERO_BRANCH_PROB

from conftest import (
    challenge_and_frame,
    frame_vector,
    helstrom_project,
    helstrom_projector_plus,
    record_density_checks,
    reference_pass_probabilities,
    reference_sampled_records,
)

# Closed-form guessing probabilities for small copy counts:
# t = 2: 1/2 + sqrt(2)/4, t = 3: 1/2 + (3 + 2 sqrt(3))/16.
PSUCC_T2 = 0.5 + math.sqrt(2.0) / 4.0
PSUCC_T3 = 0.5 + (3.0 + 2.0 * math.sqrt(3.0)) / 16.0


class TestCombinatorics:
    def test_overlap_sum_zero_copies(self):
        assert overlap_sum(0) == 0.0

    def test_overlap_sum_rejects_negative(self):
        with pytest.raises(ValueError):
            overlap_sum(-1)

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

    @pytest.mark.parametrize("t", [0, 1, 50, 51, 1000, 10**4])
    def test_magnitudes_cached_equal_fresh(self, t):
        cached = _frame_magnitudes(t)
        assert _frame_magnitudes(t) is cached
        np.testing.assert_array_equal(cached, _frame_magnitudes.__wrapped__(t))

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 7, 50, 51, 10**3, 4096, 10**5, 10**6 + 1])
    def test_magnitudes_in_place_equal_the_plain_expressions(self, t):
        # the in-place recurrence against its plain array expressions,
        # bit for bit
        m = t // 2
        w = np.arange(t, dtype=np.float64)
        step = np.log1p((t - 2.0 * w - 1.0) / (w + 1.0))
        log_pmf = np.zeros(t + 1)
        log_pmf[m + 1:] = np.cumsum(step[m:])
        log_pmf[:m] = -np.cumsum(step[:m][::-1])[::-1]
        want = np.exp(0.5 * log_pmf)
        want /= math.sqrt(math.fsum(want * want))
        got = _frame_magnitudes.__wrapped__(t)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_attacked_round_holds_no_frame_length_temporaries(self):
        # the closed-form kept states need only the magnitudes themselves
        # (1.6 MB at t = 2e5) and the recurrence's one step array
        _frame_magnitudes.cache_clear()
        adversary._overlap_sum.cache_clear()
        tracemalloc.start()
        try:
            eve_attack_round(200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_large_t_sweep_keeps_no_magnitudes(self):
        # the memo keeps only t up to the oracle's cap: a sweep over large
        # copy counts keeps none of its arrays (0.8 MB each near t = 1e5)
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
        np.testing.assert_array_equal(mags, _frame_magnitudes.__wrapped__(4))


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

    def test_pair_states_differ_with_copies(self):
        rho_plus, rho_minus = build_discrimination_pair(2)
        assert np.max(np.abs(rho_plus - rho_minus)) > 0.1


class TestHelstrom:
    @pytest.mark.parametrize("t", range(0, 9))
    def test_strategy_matches_formula(self, t):
        strat = helstrom_strategy(t)
        assert strat.psucc == pytest.approx(psucc_formula(t), abs=1e-9)

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
        # both states are still validated, by one stacked check that the
        # Cholesky certificate passes, and the trace norm comes from the
        # block SVD
        calls, validated = [], []
        eigvalsh, check = np.linalg.eigvalsh, adversary.check_density_operators

        def counted_check(stack):
            validated.append(np.shape(stack))
            check(stack)

        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        monkeypatch.setattr(adversary, "check_density_operators", counted_check)
        assert helstrom_psucc_oracle(32) == pytest.approx(psucc_formula(32), abs=1e-14)
        assert calls == []
        assert validated == [(2, 66, 66)]

    @pytest.mark.parametrize("psucc", [0.25, 1.5, float("nan")])
    def test_psucc_out_of_range_is_internal_failure(self, psucc):
        # psucc is computed, never supplied by the user: exit 5, not 4
        with pytest.raises(NumericalError):
            HelstromStrategy(3, psucc)

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
        assert helstrom_strategy(t).psucc == pytest.approx(psucc_formula(t), abs=1e-9)
        report = eve_attack_round(t)
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

    def test_rows_are_pinned_bit_for_bit(self):
        # sha256 of each row's probability bytes, then its pass_probability
        # bytes. The literals were recorded from the code that still built
        # one-t rows apart from sweeps; a changed bit in any row fails here.
        def digest(tables):
            h = hashlib.sha256()
            for table in tables:
                h.update(table.probability.tobytes())
                h.update(table.pass_probability.tobytes())
            return h.hexdigest()

        reports = eve_attack_rounds(range(0, 301))
        sweep = [report.branches for report in reports]
        assert digest(sweep) == "631d5c78211793d687a0dbad7ec2b9aaa1276887aa8670b51e996cea4cb25e21"
        scalars = np.array([(r.p_pass_exact, r.psucc_strategy) for r in reports]).tobytes()
        assert hashlib.sha256(scalars).hexdigest() == \
            "76d70024315983e56c5b414af68fac7704a9823507271d1bab1330e6d3bd5612"
        pinned = {
            0: "deae2229d156a3a162f3d6da12372432ce339e856700aac56a42536a6b349b88",
            1: "2366809b70122f93f5c8319ee33d3ef537b569a40d67ee4262cb43951626521a",
            8: "bf770ee2524186bde2ddbbca72ae377d201544c627a21e98522721e04c6e1e1b",
            64: "94da419ef388b8c49ed4cb43bd75b375b99f1aa511e3e5c049efc5ff54595757",
            4096: "f7b3054531a306e243d213c980f63779329713f1a4edc5c7a508e464c5d5b529",
            100_000: "4f8b2a1470c06d569aa5671c0850aa2d0e5598b9da64428c333ded422a939cac",
        }
        for t, want in pinned.items():
            assert digest([attack_round_branches(helstrom_strategy(t))]) == want, t

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
    table, index = EveProver(strategy).round_branches(PrivateKey(tuple(xs)))
    assert table.rounds == 1
    assert np.issubdtype(index.dtype, np.integer) and index.tolist() == [0] * len(xs)
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
