import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ill_conditioned_rows, random_unit_signatures, spy_exact_search
from qmud import (DetectorKind, decorrelate_detect, detectors, mlse_objective,
                  mmse_detect, optimal_detect, run_trials, sud_detect, sweep)
from qmud.cli import parse_config
from qmud.detectors import ALL_DETECTORS, detect_rows
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


def _dyadic_R(K):
    """Unit diagonal, off-diagonals +-2^-4, +-2^-5, ...: every product with +-1 bits is exact.

    Distinct powers of two make y^T R y differ between candidates that are
    not each other's negation, so the only ties are exact ones.
    """
    R = np.eye(K)
    for p, (k, l) in enumerate(itertools.combinations(range(K), 2)):
        R[k, l] = R[l, k] = (-1) ** p * 2.0 ** -(4 + p)
    return R


def _tie_rows(rng, R, count):
    """Midpoints R (y1 + y2) / 2 of candidates one bit apart, and all-zero rows.

    Every such row's best metric is tied between a candidate and its
    mirror image through the midpoint.  With the dyadic R those are y1 and
    y2, and both the soft rows and the residuals are exact.
    """
    K = len(R)
    y1 = rng.choice([-1.0, 1.0], size=(count, K))
    y2 = y1.copy()
    y2[np.arange(count), rng.integers(0, K, count)] *= -1
    return np.concatenate([(y1 + y2) / 2 @ R, np.zeros((2, K))])


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
        rows = detect_rows(soft, R, var)
        assert tuple(rows) == ALL_DETECTORS
        for kind, detect in self.PER_SYMBOL.items():
            assert rows[kind].tolist() == [detect(s, R, var).tolist() for s in soft]
        # The per-symbol detectors run this same row code, so the rows are
        # also checked against independent oracles: explicit inverses and
        # the brute-force search.
        for kind, M in ((DetectorKind.DECORRELATOR, R),
                        (DetectorKind.MMSE, R + var * np.eye(len(R)))):
            closed_form = soft @ np.linalg.inv(M).T
            assert rows[kind].tolist() == np.where(closed_form >= 0, 1, -1).tolist()
        self._check_optimal(soft, R, rows[DetectorKind.OPTIMAL])

    @staticmethod
    def _check_optimal(soft, R, decisions):
        assert decisions.tolist() == [brute_force_oracle(s, R)[0].tolist() for s in soft]
        # The filter's decisions are the exact search's, row for row.
        assert decisions.tolist() == detectors._exact_rows(soft, R).tolist()

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
        # 128 bytes give chunks of 4 candidates, filter slices of 4 rows and
        # exact-search slices of 1 row: the chunked paths of both searches
        # at K = 4.
        monkeypatch.setattr(detectors, "RESIDUAL_BYTES", 8 * 4 * 4)
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

    def _filter_check(self, monkeypatch, soft, ties, R):
        """Exactly the tie rows of soft reach the exact search; every row is right."""
        seen = spy_exact_search(monkeypatch)
        decisions = detect_rows(soft, R, 0.0)[DetectorKind.OPTIMAL]
        assert sorted(seen) == sorted(map(tuple, ties.tolist()))
        assert decisions.tolist() == [optimal_detect(s, R).tolist() for s in soft]
        self._check_optimal(soft, R, decisions)

    def test_ties_take_the_exact_search(self, monkeypatch):
        rng = np.random.default_rng(4)
        R = _dyadic_R(4)
        ties = _tie_rows(rng, R, 12)
        bits = rng.choice([-1.0, 1.0], size=(8, 4))
        soft = np.concatenate([rng.normal(size=(20, 4)), ties[:6], bits @ R, ties[6:]])
        self._filter_check(monkeypatch, soft, ties, R)

    def test_rounded_ties_take_the_exact_search(self, monkeypatch):
        # With a random R the two tied candidates' scores differ by
        # rounding, in either form, so the winner is whichever the exact
        # search's floats favour; the filter must not pick one itself.
        rng = np.random.default_rng(8)
        R = _random_R(rng, 5)
        ties = _tie_rows(rng, R, 40)
        soft = np.concatenate([rng.normal(size=(20, 5)), ties])
        seen = spy_exact_search(monkeypatch)
        decisions = detect_rows(soft, R, 0.0)[DetectorKind.OPTIMAL]
        assert sorted(seen) == sorted(map(tuple, ties.tolist()))
        assert decisions.tolist() == detectors._exact_rows(soft, R).tolist()

    def test_running_minimum_across_chunks_and_slices(self, monkeypatch):
        # At K = 6, 192 bytes give chunks of 4 candidates and filter slices
        # of 6 rows: a row's minimum moves across 16 chunks, and its count is
        # kept or restarted as it moves.
        monkeypatch.setattr(detectors, "RESIDUAL_BYTES", 8 * 6 * 4)
        rng = np.random.default_rng(6)
        R = _dyadic_R(6)
        ties = _tie_rows(rng, R, 5)
        bits = rng.choice([-1.0, 1.0], size=(5, 6))
        soft = np.concatenate([rng.normal(size=(10, 6)), ties[:3], bits @ R, ties[3:]])
        self._filter_check(monkeypatch, soft, ties, R)

    def test_ill_conditioned_rows_seldom_reach_the_exact_search(self, monkeypatch):
        # cond(R) = 1e5 at K = 6.  The margin grows with |R^-1 b~|^2, not
        # with cond(R)^2, so few noisy rows rerun the exhaustive search (34
        # of these 2000).
        soft, R = ill_conditioned_rows()
        exact = detectors._exact_rows(soft, R)
        seen = spy_exact_search(monkeypatch)
        decisions = detect_rows(soft, R, 0.0)[DetectorKind.OPTIMAL]
        assert len(seen) <= 0.03 * len(soft)
        assert decisions.tolist() == exact.tolist()

    def test_ties_across_uneven_chunks_at_k14(self, monkeypatch):
        # At K = 14 the candidates come in chunks of 9362 and 7022.  Each
        # tie row's two candidates differ in the first bit, 8192 apart, so
        # most pairs straddle the chunk boundary.
        K = 14
        assert [len(c) for _, c in detectors._candidate_chunks(K)] == [9362, 7022]
        rng = np.random.default_rng(14)
        R = _random_R(rng, K)
        y1 = rng.choice([-1.0, 1.0], size=(12, K))
        y1[:, 0] = -1.0
        y2 = y1.copy()
        y2[:, 0] = 1.0
        ties = np.concatenate([(y1 + y2) / 2 @ R, np.zeros((2, K))])
        soft = np.concatenate([rng.normal(size=(8, K)), ties])
        exact = detectors._exact_rows(soft, R)
        seen = spy_exact_search(monkeypatch)
        decisions = detect_rows(soft, R, 0.0)[DetectorKind.OPTIMAL]
        assert set(map(tuple, ties.tolist())) <= set(seen)
        assert decisions.tolist() == exact.tolist()

    def test_k16_search_stays_within_its_byte_cap(self):
        # All 2^16 candidates in one chunk would take 8 MiB; chunks of
        # RESIDUAL_BYTES // 8K candidates keep every step under the cap,
        # the exact search of the all-zero row, a tie, too.
        K = 16
        rng = np.random.default_rng(16)
        R = _random_R(rng, K)
        soft = np.concatenate([rng.choice([-1.0, 1.0], size=(63, K)) @ R
                               + 0.3 * rng.normal(size=(63, K)), np.zeros((1, K))])
        tracemalloc.start()
        try:
            decisions = detectors._optimal_rows(soft, R)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * detectors.RESIDUAL_BYTES
        assert decisions[-1:].tolist() == detectors._exact_rows(soft[-1:], R).tolist()

    @pytest.mark.parametrize("name,param,values", [
        ("two_user", None, (None,)),
        ("nearfar_reps", None, (None,)),
        ("dense_sweep", "noise_sigma", (0.05, 0.1, 0.15)),
    ])
    def test_benchmark_rows_never_reach_the_exact_search(self, monkeypatch, name, param,
                                                         values):
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "scenarios"
        scenario = parse_config((path / f"{name}.json").read_text())
        seen = spy_exact_search(monkeypatch)
        if param is None:
            run_trials(scenario, trials=2000, master_seed=1)
        else:
            sweep(scenario, param, values, trials=2000, master_seed=1)
        assert seen == []


class TestCandidateChunks:
    @pytest.mark.parametrize("chunk", [4, 5])
    def test_lexicographic_order_in_chunks(self, monkeypatch, chunk):
        # A chunk of 5 leaves an uneven last chunk for every K >= 3.
        for K in range(1, 13):
            monkeypatch.setattr(detectors, "RESIDUAL_BYTES", 8 * K * chunk)
            starts, chunks = zip(*detectors._candidate_chunks(K))
            assert all(len(c) == min(chunk, 2 ** K) for c in chunks[:-1])
            assert list(starts) == list(range(0, 2 ** K, min(chunk, 2 ** K)))
            assert np.concatenate(chunks).tolist() == [
                list(y) for y in itertools.product((-1.0, 1.0), repeat=K)]
