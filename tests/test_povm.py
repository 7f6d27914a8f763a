import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmud.errors import (DomainError, EmptyRegister, InternalInconsistency,
                         NotPositive, ValidationError)
from qmud.harness import DECISIONS, Decision, detect_user_rows
from qmud.povm import (MeasurementOutcome, QubitState, UserDecision, build_povm,
                       combine_block_outcomes, confirm_reject_pair, detect_user,
                       measurement_block, outcome_probabilities, sample_outcome,
                       select_decision, solve_alpha_for_beta, symmetric_gain)
from qmud.registers import SparseRegister
from qmud.rng import _GAMMA, _MASK64, SplitMix64, TrialStreams, derive_seed

BETA_GRID = [round(0.1 * i, 1) for i in range(11)]
NS_GRID = [1, 2, 4, 16, 256]

E1_, E2_, E3_ = MeasurementOutcome.E1, MeasurementOutcome.E2, MeasurementOutcome.E3


class FixedUniforms:
    """Stand-in stream yielding scripted uniform draws."""

    def __init__(self, values):
        self._values = list(values)

    def uniform(self):
        return self._values.pop(0)


class TestSolveAlphaForBeta:
    def test_endpoints(self):
        assert solve_alpha_for_beta(0.0, 4) == 1.0
        assert solve_alpha_for_beta(1.0, 4) == 0.0

    def test_interior_value(self):
        assert solve_alpha_for_beta(0.5, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_population_one_is_always_one(self):
        for beta in BETA_GRID:
            assert solve_alpha_for_beta(beta, 1) == 1.0

    def test_rejects_out_of_range_beta(self):
        with pytest.raises(DomainError):
            solve_alpha_for_beta(1.2, 4)
        with pytest.raises(DomainError):
            solve_alpha_for_beta(-0.1, 4)

    @given(st.floats(0, 1), st.integers(2, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_boundary_solution_keeps_e3_rank_deficient(self, beta, n_s):
        alpha = solve_alpha_for_beta(beta, n_s)
        povm = build_povm(alpha, beta, n_s)
        assert abs(np.linalg.det(povm.e3)) <= 1e-10


class TestSymmetricGain:
    def test_exact_small_populations(self):
        assert symmetric_gain(1) == 1.0
        assert symmetric_gain(2) == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)

    def test_large_population_value(self):
        assert symmetric_gain(100) == pytest.approx(0.5012562893380046, abs=1e-12)

    def test_fixed_point_of_boundary_equation(self):
        for n_s in (1, 2, 4, 16, 256, 1000):
            alpha = symmetric_gain(n_s)
            assert solve_alpha_for_beta(alpha, n_s) == pytest.approx(alpha, abs=1e-12)

    def test_range_and_monotone_decrease(self):
        values = [symmetric_gain(n) for n in range(1, 2001)]
        assert all(0.5 < v <= 1.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_population_whose_square_overflows(self):
        # 10**160 squared is past the float range.
        assert symmetric_gain(10**160) == pytest.approx(0.5, abs=1e-12)

    def test_series_tail(self):
        # Large-population expansion: gain ~ 1/2 + 1/(8 N_s).
        for n_s in (100, 1000, 10_000):
            assert symmetric_gain(n_s) - 0.5 == pytest.approx(1 / (8 * n_s), rel=0.01)


@pytest.mark.parametrize("n_s", [0, 10**400], ids=["0", "10**400"])
@pytest.mark.parametrize("formula", [lambda n_s: solve_alpha_for_beta(0.5, n_s), symmetric_gain,
                                     lambda n_s: build_povm(0.5, 0.5, n_s)],
                         ids=["solve_alpha_for_beta", "symmetric_gain", "build_povm"])
def test_population_outside_float_range_or_below_one_rejected(formula, n_s):
    # 10**400 is past the largest float, where each formula would raise OverflowError.
    with pytest.raises(DomainError, match="population must lie in"):
        formula(n_s)


class TestBuildPovm:
    def test_confirm_endpoint_matrices(self):
        povm = build_povm(1.0, 0.0, 4)
        np.testing.assert_array_equal(povm.e1, [[0, 0], [0, 1]])
        np.testing.assert_array_equal(povm.e2, np.zeros((2, 2)))
        np.testing.assert_array_equal(povm.e3, [[1, 0], [0, 0]])

    def test_symmetric_gain_matrices(self):
        g = 2.0 - math.sqrt(2.0)
        povm = build_povm(g, g, 2)
        expected_e3 = np.array([[0.70710678, 0.29289322], [0.29289322, 0.12132034]])
        np.testing.assert_allclose(povm.e3, expected_e3, atol=1e-8)
        assert abs(np.linalg.det(povm.e3)) <= 1e-12

    def test_infeasible_pair_rejected(self):
        with pytest.raises(NotPositive):
            build_povm(1.0, 1.0, 2)

    def test_gain_domain_checked(self):
        with pytest.raises(DomainError):
            build_povm(1.5, 0.0, 2)
        with pytest.raises(DomainError):
            build_povm(0.0, -0.5, 2)

    def test_operators_are_read_only(self):
        povm = build_povm(0.5, 0.5, 4)
        with pytest.raises(ValueError):
            povm.e1[0, 0] = 1.0

    @pytest.mark.parametrize("n_s", NS_GRID)
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_completeness_and_positivity_grid(self, n_s, beta):
        povm = build_povm(solve_alpha_for_beta(beta, n_s), beta, n_s)
        np.testing.assert_allclose(povm.e1 + povm.e2 + povm.e3, np.eye(2), atol=1e-12)
        for m in (povm.e1, povm.e2, povm.e3):
            assert np.linalg.eigvalsh(m).min() >= -1e-9


class TestOutcomeProbabilities:
    def test_worked_example(self):
        povm = build_povm(1.0, 0.0, 4)
        p = outcome_probabilities(povm, QubitState.present(4))
        assert p[0] == 0.25
        assert p[1] == 0.0
        assert p[2] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("n_s", NS_GRID)
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_forbidden_outcomes_have_exactly_zero_probability(self, n_s, beta):
        povm = build_povm(solve_alpha_for_beta(beta, n_s), beta, n_s)
        assert outcome_probabilities(povm, QubitState.absent())[0] == 0.0
        assert outcome_probabilities(povm, QubitState.present(n_s))[1] == 0.0

    @pytest.mark.parametrize("n_s", NS_GRID)
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_probabilities_sum_to_one(self, n_s, beta):
        povm = build_povm(solve_alpha_for_beta(beta, n_s), beta, n_s)
        for state in (QubitState.absent(), QubitState.present(n_s)):
            assert sum(outcome_probabilities(povm, state)) == pytest.approx(1.0, abs=1e-12)


class TestConfirmRejectPair:
    def test_confirm_branch_doubles_detection(self):
        confirm, _ = confirm_reject_pair(4)
        p1 = outcome_probabilities(confirm, QubitState.present(4))[0]
        assert p1 == 0.25  # 1/N_s, twice the symmetric ~1/(2 N_s) asymptote

    def test_reject_branch_never_misrejects_present_state(self):
        _, reject = confirm_reject_pair(4)
        assert outcome_probabilities(reject, QubitState.present(4))[1] == 0.0

    def test_doubling_ratio_approaches_two(self):
        ratios = []
        for n_s in (100, 1000, 10**6):
            confirm, _ = confirm_reject_pair(n_s)
            p_confirm = outcome_probabilities(confirm, QubitState.present(n_s))[0]
            p_symmetric = symmetric_gain(n_s) / n_s
            ratios.append(p_confirm / p_symmetric)
        assert all(1.8 < r < 2.0 for r in ratios)
        assert ratios == sorted(ratios)

    def test_population_one_decides_deterministically(self):
        confirm, reject = confirm_reject_pair(1)
        assert outcome_probabilities(confirm, QubitState.present(1))[0] == 1.0
        assert outcome_probabilities(reject, QubitState.absent())[1] == 1.0


class TestSampleOutcome:
    def test_inverse_cdf_ordering(self):
        povm = build_povm(1.0, 0.0, 4)
        state = QubitState.present(4)  # probabilities (0.25, 0, 0.75)
        assert sample_outcome(povm, state, FixedUniforms([0.1])) is E1_
        assert sample_outcome(povm, state, FixedUniforms([0.3])) is E3_

    def test_degenerate_distribution(self):
        confirm, _ = confirm_reject_pair(4)
        state = QubitState.absent()  # probabilities (0, 0, 1)
        rng = SplitMix64(11)
        assert all(sample_outcome(confirm, state, rng) is E3_ for _ in range(1000))

    def test_empirical_frequencies_match(self):
        g = symmetric_gain(4)
        povm = build_povm(g, g, 4)
        state = QubitState.present(4)
        p1, p2, p3 = outcome_probabilities(povm, state)
        rng = SplitMix64(123)
        n = 100_000
        counts = {E1_: 0, E2_: 0, E3_: 0}
        for _ in range(n):
            counts[sample_outcome(povm, state, rng)] += 1
        for outcome, p in ((E1_, p1), (E2_, p2), (E3_, p3)):
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[outcome] / n - p) <= 3 * sigma + 1e-12


class TestMeasurementBlock:
    def test_decision_logic_table(self):
        assert combine_block_outcomes(E1_, E1_) is E1_
        assert combine_block_outcomes(E1_, E3_) is E1_
        assert combine_block_outcomes(E3_, E1_) is E1_
        assert combine_block_outcomes(E2_, E2_) is E2_
        assert combine_block_outcomes(E2_, E3_) is E2_
        assert combine_block_outcomes(E3_, E2_) is E2_
        assert combine_block_outcomes(E3_, E3_) is E3_

    def test_contradictory_branches_raise(self):
        with pytest.raises(InternalInconsistency):
            combine_block_outcomes(E1_, E2_)
        with pytest.raises(InternalInconsistency):
            combine_block_outcomes(E2_, E1_)

    def test_absent_index_never_confirms(self):
        reg = SparseRegister(frozenset({1, 2, 3, 4}), n_q=4)
        rng = SplitMix64(77)
        outcomes = {measurement_block(reg, 9, rng) for _ in range(100_000)}
        assert E1_ not in outcomes
        assert E2_ in outcomes  # the reject branch does conclude sometimes

    def test_present_index_never_rejects(self):
        reg = SparseRegister(frozenset({1, 2, 3, 4}), n_q=4)
        rng = SplitMix64(78)
        outcomes = {measurement_block(reg, 3, rng) for _ in range(100_000)}
        assert E2_ not in outcomes
        assert E1_ in outcomes

    def test_empty_register_raises(self):
        with pytest.raises(EmptyRegister):
            measurement_block(SparseRegister(frozenset(), 4), 0, SplitMix64(0))


class TestDetectUser:
    def test_selection_table(self):
        assert select_decision(E1_, E2_) is Decision.BIT_ONE
        assert select_decision(E2_, E1_) is Decision.BIT_ZERO
        assert select_decision(E2_, E2_) is Decision.NO_MESSAGE
        assert select_decision(E1_, E1_) is Decision.AMBIGUOUS
        with pytest.raises(ValidationError):
            select_decision(E3_, E1_)

    def test_rows_receiver_rejects_an_empty_budget(self):
        stored = np.array([True, False])
        with pytest.raises(ValidationError, match="reps_max must be >= 1"):
            detect_user_rows(stored, ~stored, 1, 1, 0, TrialStreams(0, 0, 2))

    def test_singleton_registers_decide_in_one_round(self):
        reg1 = SparseRegister(frozenset({5}), n_q=4)
        reg0 = SparseRegister(frozenset({9}), n_q=4)
        for seed in range(50):
            decision = detect_user(reg1, reg0, 5, 4, SplitMix64(seed))
            assert decision.kind is Decision.BIT_ONE
            assert decision.reps_used == 1

    def test_index_in_both_registers_never_yields_a_bit(self):
        reg1 = SparseRegister(frozenset({5, 6}), n_q=4)
        reg0 = SparseRegister(frozenset({5, 7}), n_q=4)
        rng = SplitMix64(3)
        kinds = {detect_user(reg1, reg0, 5, 3, rng).kind for _ in range(10_000)}
        assert kinds <= {Decision.AMBIGUOUS, Decision.INCONCLUSIVE}
        assert Decision.AMBIGUOUS in kinds

    def test_index_in_neither_register_never_yields_a_bit(self):
        reg1 = SparseRegister(frozenset({5, 6}), n_q=4)
        reg0 = SparseRegister(frozenset({7, 8}), n_q=4)
        rng = SplitMix64(4)
        kinds = {detect_user(reg1, reg0, 1, 3, rng).kind for _ in range(10_000)}
        assert kinds <= {Decision.NO_MESSAGE, Decision.INCONCLUSIVE}
        assert Decision.NO_MESSAGE in kinds

    def test_banks_with_unequal_populations_stay_sound(self):
        # Each bank tunes its operators to its own register size.
        reg1 = SparseRegister(frozenset({5}), n_q=4)
        reg0 = SparseRegister(frozenset({1, 2, 3, 8}), n_q=4)
        rng = SplitMix64(6)
        kinds = {detect_user(reg1, reg0, 5, 16, rng).kind for _ in range(2000)}
        assert kinds <= {Decision.BIT_ONE, Decision.INCONCLUSIVE}
        assert Decision.BIT_ONE in kinds

    def test_budget_exhaustion_reports_inconclusive(self):
        reg1 = SparseRegister(frozenset(range(64)), n_q=8)
        reg0 = SparseRegister(frozenset(range(64, 128)), n_q=8)
        rng = SplitMix64(5)
        results = [detect_user(reg1, reg0, 0, 2, rng) for _ in range(300)]
        inconclusive = [d for d in results if d.kind is Decision.INCONCLUSIVE]
        assert inconclusive  # 1/64 conclusive chance per block rarely resolves in 2
        assert all(d.reps_used == 2 for d in inconclusive)
        assert all(d.reps_used <= 2 for d in results)

    def test_empty_register_rejected(self):
        reg = SparseRegister(frozenset({1}), n_q=4)
        empty = SparseRegister(frozenset(), n_q=4)
        with pytest.raises(EmptyRegister):
            detect_user(reg, empty, 1, 1, SplitMix64(0))

    def test_bad_budget_rejected(self):
        reg1 = SparseRegister(frozenset({1}), n_q=4)
        reg0 = SparseRegister(frozenset({2}), n_q=4)
        with pytest.raises(ValidationError):
            detect_user(reg1, reg0, 1, 0, SplitMix64(0))

    def test_repetition_decay_matches_geometric_law(self):
        # Present state at population 4: conclusive chance 1/4 per block,
        # so the inconclusive rate after m blocks is (3/4)**m.
        reg1 = SparseRegister(frozenset({1, 2, 3, 4}), n_q=4)
        reg0 = SparseRegister(frozenset({8, 9, 10, 11}), n_q=4)
        rng = SplitMix64(2718)
        n = 20_000
        for m in (1, 2, 3):
            stuck = sum(
                detect_user(reg1, reg0, 1, m, rng).kind is Decision.INCONCLUSIVE
                for _ in range(n))
            # Either i.i.d. bank still unresolved: 1 - (1 - 0.75^m)^2.
            p_stuck = 1.0 - (1.0 - 0.75 ** m) ** 2
            sigma = math.sqrt(p_stuck * (1 - p_stuck) / n)
            assert abs(stuck / n - p_stuck) <= 3 * sigma


@given(st.sets(st.integers(0, 15), min_size=1), st.sets(st.integers(0, 15), min_size=1),
       st.integers(0, 15), st.integers(1, 8), st.integers(0, 2**64 - 1),
       st.integers(0, 2**40), st.integers(1, 16))
@example({3}, {3}, 3, 2, 1, 0, 1)
@example({3}, {5}, 3, 2, 2, 0, 1)
@example({3}, {5}, 5, 2, 3, 0, 1)
@example({3}, {5}, 9, 2, 4, 0, 1)
@example({1, 2, 3, 4}, {3, 8}, 0, 8, 5, 7, 16)
@settings(max_examples=300, deadline=None)
def test_engine_equals_the_operator_model(members1, members0, v, reps_max, master, t0, T):
    # Row t probes its own index v_t on the stream of trial t0 + t.  The
    # engine's threshold compares must give every row the decision, the
    # reps and the number of draws that measuring block by block gives.
    reg1, reg0 = SparseRegister(members1, n_q=4), SparseRegister(members0, n_q=4)
    v_t = (v + np.arange(T)) % 16
    streams = TrialStreams(master, t0, T)
    codes, reps = detect_user_rows(reg1.contains(v_t), reg0.contains(v_t), reg1.n_s, reg0.n_s,
                                   reps_max, streams)
    for t in range(T):
        seed = derive_seed(master, t0 + t)
        rng = SplitMix64(seed)
        decision = detect_user(reg1, reg0, int(v_t[t]), reps_max, rng)
        assert UserDecision(DECISIONS[codes[t]], int(reps[t])) == decision
        # A stream's state is its seed advanced by one gamma per draw taken.
        assert rng._state == (seed + int(streams.draws[t]) * _GAMMA) & _MASK64
