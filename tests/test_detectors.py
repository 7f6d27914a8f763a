import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unit_signatures
from qmud import (DetectorKind, decorrelate_detect, detectors, mlse_objective,
                  mmse_detect, optimal_detect, sud_detect)
from qmud.detectors import detect_rows
from qmud.errors import KTooLarge, SingularMatrix

R2 = np.array([[1.0, 0.5], [0.5, 1.0]])
SOFT2 = np.array([0.5, -0.5])


def brute_force_oracle(soft, R):
    """Independent enumeration: explicit inverse, plain loops, first argmin."""
    Rinv = np.linalg.inv(R)
    best, best_obj = None, None
    for y in itertools.product((-1, 1), repeat=len(soft)):
        d = np.asarray(soft) - R @ np.array(y, dtype=float)
        obj = float(d @ Rinv @ d)
        if best_obj is None or obj < best_obj:
            best, best_obj = np.array(y), obj
    return best, best_obj


def _random_R(rng, K):
    sig = np.array(random_unit_signatures(rng, K, K + 3))
    return sig @ sig.T


class TestSud:
    def test_componentwise_sign(self):
        assert np.array_equal(sud_detect(SOFT2), [1, -1])

    def test_zero_ties_break_positive(self):
        assert np.array_equal(sud_detect((0.0, 0.0)), [1, 1])

    def test_single_negative(self):
        assert np.array_equal(sud_detect((-3.2,)), [-1])


class TestDecorrelator:
    def test_worked_example(self):
        assert np.array_equal(decorrelate_detect(SOFT2, R2), [1, -1])

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_identity_matches_sud(self, seed):
        soft = np.random.default_rng(seed).normal(size=3)
        assert np.array_equal(decorrelate_detect(soft, np.eye(3)), sud_detect(soft))

    def test_duplicated_signatures_raise(self):
        R = np.ones((2, 2))
        with pytest.raises(SingularMatrix):
            decorrelate_detect(SOFT2, R)

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_noiseless_inversion_is_exact(self, K):
        R = _random_R(np.random.default_rng(K), K)
        for bits in itertools.product((-1, 1), repeat=K):
            b = np.array(bits)
            assert np.array_equal(decorrelate_detect(R @ b, R), b)


class TestMmse:
    def test_zero_variance_reduces_to_decorrelator(self):
        assert np.array_equal(mmse_detect(SOFT2, R2, 0.0),
                              decorrelate_detect(SOFT2, R2))

    def test_large_variance_approaches_sud(self):
        rng = np.random.default_rng(3)
        R = _random_R(rng, 4)
        soft = rng.normal(size=4)
        assert np.array_equal(mmse_detect(soft, R, 1e9), sud_detect(soft))

    def test_worked_regularized_solve(self):
        assert np.array_equal(mmse_detect(SOFT2, R2, 1.0), [1, -1])

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            mmse_detect(SOFT2, R2, -0.1)


class TestMlseObjective:
    def test_zero_at_exact_reproduction(self):
        assert mlse_objective((1, -1), SOFT2, R2) == 0.0

    @pytest.mark.parametrize("y", [(1, 1), (-1, -1), (-1, 1)])
    def test_alternatives_score_four(self, y):
        assert mlse_objective(y, SOFT2, R2) == pytest.approx(4.0, abs=1e-12)

    @given(st.integers(0, 1000), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed, K):
        rng = np.random.default_rng(seed)
        R = _random_R(rng, K)
        soft = rng.normal(size=K)
        for y in itertools.product((-1, 1), repeat=K):
            assert mlse_objective(y, soft, R) >= -1e-12


class TestOptimalDetect:
    def test_worked_example(self):
        y = optimal_detect(SOFT2, R2)
        assert np.array_equal(y, [1, -1])
        assert mlse_objective(y, SOFT2, R2) == 0.0

    def test_identity_matches_sud(self):
        soft = np.array([0.3, -0.7, 0.1])
        assert np.array_equal(optimal_detect(soft, np.eye(3)), sud_detect(soft))

    @given(st.integers(0, 100_000), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_matches_independent_oracle(self, seed, K):
        rng = np.random.default_rng(seed)
        R = _random_R(rng, K)
        soft = rng.normal(size=K)
        expected, _ = brute_force_oracle(soft, R)
        assert np.array_equal(optimal_detect(soft, R), expected)

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_never_beaten_by_any_candidate(self, K):
        rng = np.random.default_rng(K + 50)
        R = _random_R(rng, K)
        soft = rng.normal(size=K)
        best = mlse_objective(optimal_detect(soft, R), soft, R)
        for y in itertools.product((-1, 1), repeat=K):
            assert best <= mlse_objective(y, soft, R) + 1e-12

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_noiseless_truth_attains_zero(self, K):
        R = _random_R(np.random.default_rng(K + 7), K)
        for bits in itertools.product((-1, 1), repeat=K):
            b = np.array(bits)
            assert np.array_equal(optimal_detect(R @ b, R), b)

    def test_tie_breaks_lexicographically_smallest(self):
        # Zero soft outputs make all candidates score identically.
        assert np.array_equal(optimal_detect(np.zeros(2), np.eye(2)), [-1, -1])

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            optimal_detect(np.zeros(21), np.eye(21))

    def test_degenerate_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            optimal_detect(SOFT2, np.ones((2, 2)))


class TestDetectRows:
    """detect_rows gives every row the bits of the per-symbol detector."""

    PER_SYMBOL = {
        DetectorKind.SUD: lambda soft, R, var: sud_detect(soft),
        DetectorKind.DECORRELATOR: lambda soft, R, var: decorrelate_detect(soft, R),
        DetectorKind.MMSE: lambda soft, R, var: mmse_detect(soft, R, var),
        DetectorKind.OPTIMAL: lambda soft, R, var: optimal_detect(soft, R),
    }

    def _check(self, soft, R, var):
        rows = detect_rows(tuple(DetectorKind), soft, R, var)
        for kind, detect in self.PER_SYMBOL.items():
            assert rows[kind].tolist() == [detect(s, R, var).tolist() for s in soft]
        # The per-symbol detectors run this same row code, so the rows are
        # also checked against independent oracles: explicit inverses and
        # the brute-force search.
        for kind, M in ((DetectorKind.DECORRELATOR, R),
                        (DetectorKind.MMSE, R + var * np.eye(len(R)))):
            closed_form = soft @ np.linalg.inv(M).T
            assert rows[kind].tolist() == np.where(closed_form >= 0, 1, -1).tolist()
        assert rows[DetectorKind.OPTIMAL].tolist() == [
            brute_force_oracle(s, R)[0].tolist() for s in soft]

    @given(st.integers(0, 100_000), st.integers(1, 6), st.sampled_from([0.0, 0.01, 0.5, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_per_symbol_detectors(self, seed, K, var):
        rng = np.random.default_rng(seed)
        R = _random_R(rng, K)
        # Noisy rows, plus noiseless rows R b and all-zero rows, where every
        # optimal candidate ties.
        bits = rng.choice([-1.0, 1.0], size=(20, K))
        soft = np.concatenate([rng.normal(size=(40, K)), bits @ R, np.zeros((3, K))])
        self._check(soft, R, var)

    def test_ties_and_slices_across_candidate_chunks(self, monkeypatch):
        # Chunks of 4 candidates and slices of 3 rows run the chunked paths
        # of both searches at K = 4.
        monkeypatch.setattr(detectors, "_ENUM_CHUNK", 4)
        monkeypatch.setattr(detectors, "RESIDUAL_BYTES", 3 * 8 * 4 * 4)
        rng = np.random.default_rng(3)
        soft = np.concatenate([rng.normal(size=(10, 4)), np.zeros((2, 4))])
        self._check(soft, np.eye(4), 0.3)
        self._check(soft, _random_R(rng, 4), 0.3)

    @pytest.mark.parametrize("var", [0.0, 0.3])
    def test_near_singular_R(self, var):
        # Eigenvalues 1, 0.3 and 2e-12 give cond(R) = 5e11, just under the
        # limit.  Noiseless rows still have one clear optimum and all-zero
        # rows tie each candidate with its negation.
        Q, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))
        R = (Q * [1.0, 0.3, 2e-12]) @ Q.T
        R = (R + R.T) / 2
        assert 1e11 < np.linalg.cond(R) < detectors.CONDITION_LIMIT
        bits = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        self._check(np.concatenate([bits @ R, np.zeros((2, 3))]), R, var)


class TestCandidateChunks:
    @pytest.mark.parametrize("chunk", [4, 5])
    def test_lexicographic_order_in_chunks(self, monkeypatch, chunk):
        # A chunk of 5 leaves an uneven last chunk for every K >= 3.
        monkeypatch.setattr(detectors, "_ENUM_CHUNK", chunk)
        for K in range(1, 13):
            chunks = list(detectors._candidate_chunks(K))
            assert all(len(c) == chunk for c in chunks[:-1])
            assert np.concatenate(chunks).tolist() == [
                list(y) for y in itertools.product((-1.0, 1.0), repeat=K)]
