"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with its elapsed time.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import make_orthogonal
from qmud.cdma import correlation_matrix, matched_filter, transmit
from qmud.cli import main, parse_config
from qmud.detectors import (DetectorKind, decorrelate_detect, mlse_objective, mmse_detect,
                            optimal_detect, sud_detect)
from qmud.harness import run_trials
from qmud.povm import (MeasurementOutcome, QubitState, build_povm, confirm_reject_pair,
                       detect_user, measurement_block, outcome_probabilities, sample_outcome,
                       solve_alpha_for_beta, symmetric_gain)
from qmud.registers import SparseRegister, pack_basis, quantize_waveform
from qmud.rng import SplitMix64
from scalar_reference import reference_registers

BETA_GRID = [round(0.1 * i, 1) for i in range(11)]
NS_GRID = [1, 2, 4, 16, 256]

RECEIVER_CONFIG = {
    "K": 2, "PG": 2,
    "signatures": [[1.0, 0.0], [0.5, math.sqrt(0.75)]],
    "energies": [1.0, 1.0],
    "gains": [1.0, 1.0],
    "noise_sigma": 0.28125,  # half the lattice reach: gamma * step / 2
    "N_ch": 3,
    "amplitude_A": 2.25,
    "gamma": 1,
    "reps_max": 6,
    "seed": 2026,
}


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s < {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_1_povm_completeness_and_positivity():
    with criterion(1, "POVM completeness and positivity", 1.0):
        for n_s in NS_GRID:
            for beta in BETA_GRID:
                povm = build_povm(solve_alpha_for_beta(beta, n_s), beta, n_s)
                residual = povm.e1 + povm.e2 + povm.e3 - np.eye(2)
                assert np.abs(residual).max() <= 1e-12
                for m in (povm.e1, povm.e2, povm.e3):
                    assert np.linalg.eigvalsh(m).min() >= -1e-9
                assert abs(np.linalg.det(povm.e3)) <= 1e-10


def test_criterion_2_zero_error_discrimination():
    with criterion(2, "zero-error discrimination", 10.0):
        for n_s in NS_GRID:
            for beta in BETA_GRID:
                povm = build_povm(solve_alpha_for_beta(beta, n_s), beta, n_s)
                assert outcome_probabilities(povm, QubitState.absent())[0] <= 1e-12
                assert outcome_probabilities(povm, QubitState.present(n_s))[1] <= 1e-12

        g = symmetric_gain(4)
        povm = build_povm(g, g, 4)
        rng = SplitMix64(314159)
        absent, present = QubitState.absent(), QubitState.present(4)
        n = 10**6
        false_confirms = sum(
            sample_outcome(povm, absent, rng) is MeasurementOutcome.E1
            for _ in range(n))
        false_rejects = sum(
            sample_outcome(povm, present, rng) is MeasurementOutcome.E2
            for _ in range(n))
        assert false_confirms == 0
        assert false_rejects == 0


def test_criterion_3_symmetric_gain_values():
    with criterion(3, "symmetric gain fixed point and limit", 1.0):
        assert symmetric_gain(1) == pytest.approx(1.0, abs=1e-12)
        assert symmetric_gain(2) == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
        assert abs(symmetric_gain(1000) - 0.5) < 2e-4
        values = [symmetric_gain(n) for n in range(1, 1001)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_criterion_4_parallel_pair_doubles_detection():
    with criterion(4, "confirm-branch doubling ratio", 1.0):
        ratios = []
        for n_s in (100, 1000, 10**6):
            confirm, _ = confirm_reject_pair(n_s)
            p_confirm = outcome_probabilities(confirm, QubitState.present(n_s))[0]
            p_symmetric = symmetric_gain(n_s) / n_s
            ratio = p_confirm / p_symmetric
            assert ratio == pytest.approx(1.0 / symmetric_gain(n_s), rel=1e-12)
            ratios.append(ratio)
        assert all(1.8 < r < 2.0 for r in ratios)
        assert ratios == sorted(ratios)


def test_criterion_5_repetition_decay():
    with criterion(5, "inconclusive decay (3/4)^m", 30.0):
        reg = SparseRegister(frozenset({3, 5, 8, 13}), n_q=4)
        v = 5  # stored, so the bank sees the present state at population 4
        rng = SplitMix64(271828)
        runs = 10**5
        for m in (1, 2, 3, 5):
            stuck = 0
            for _ in range(runs):
                for _ in range(m):
                    if measurement_block(reg, v, rng) is not MeasurementOutcome.E3:
                        break
                else:
                    stuck += 1
            p = 0.75 ** m
            sigma = math.sqrt(p * (1.0 - p) / runs)
            assert abs(stuck / runs - p) <= 3.0 * sigma, (m, stuck / runs, p)


def test_criterion_6_receiver_soundness_montecarlo():
    with criterion(6, "receiver soundness over 1e4 trials", 60.0):
        scenario = parse_config(json.dumps(RECEIVER_CONFIG))
        report = run_trials(scenario, trials=10_000, master_seed=scenario.seed)
        q = report.qmud
        assert q.false_decisions == 0
        assert q.inconclusive >= 0 and q.ambiguous >= 0 and q.no_message >= 0
        total = (q.correct + q.false_decisions + q.no_message + q.ambiguous
                 + q.inconclusive + q.coverage_miss)
        assert total == 10_000 * scenario.K
        assert report.detector_bit_errors[DetectorKind.SUD] > 0
        print(f"  qmud: correct={q.correct} inconclusive={q.inconclusive} "
              f"ambiguous={q.ambiguous} coverage_miss={q.coverage_miss}; "
              f"sud errors={report.detector_bit_errors[DetectorKind.SUD]}")


def test_criterion_7_optimal_detector_against_oracle():
    with criterion(7, "exhaustive detector vs. independent oracle", 5.0):
        R2 = np.array([[1.0, 0.5], [0.5, 1.0]])
        soft2 = np.array([0.5, -0.5])
        assert mlse_objective((1, -1), soft2, R2) == 0.0
        for y in ((1, 1), (-1, -1), (-1, 1)):
            assert mlse_objective(y, soft2, R2) == pytest.approx(4.0, abs=1e-12)

        rng = np.random.default_rng(777)
        for _ in range(100):
            K = int(rng.integers(1, 5))
            sig = rng.normal(size=(K, K + 3))
            sig /= np.linalg.norm(sig, axis=1, keepdims=True)
            R = sig @ sig.T
            soft = rng.normal(size=K)
            # Independent oracle: explicit inverse, plain loop, first argmin.
            Rinv = np.linalg.inv(R)
            best, best_obj = None, None
            for y in itertools.product((-1, 1), repeat=K):
                d = soft - R @ np.array(y, dtype=float)
                obj = float(d @ Rinv @ d)
                if best_obj is None or obj < best_obj:
                    best, best_obj = y, obj
            assert tuple(optimal_detect(soft, R)) == best


def _decode_all_patterns(scenario, reps_max, seed):
    """Run the pipeline over every bit pattern; return per-pattern results."""
    R = correlation_matrix(scenario)
    registers = reference_registers(scenario)
    results = []
    rng = SplitMix64(seed)
    for bits in itertools.product((-1, 1), repeat=scenario.K):
        chips = transmit(scenario, bits, rng)
        soft = matched_filter(chips, scenario)
        classical = {
            "sud": tuple(sud_detect(soft)),
            "decorrelator": tuple(decorrelate_detect(soft, R)),
            "mmse": tuple(mmse_detect(soft, R, 0.0)),
            "optimal": tuple(optimal_detect(soft, R)),
        }
        v = pack_basis(quantize_waveform(chips, scenario.quantizer), scenario.quantizer)
        qmud = [detect_user(registers[(k, 1)], registers[(k, -1)], v, reps_max, rng)
                for k in range(scenario.K)]
        results.append((bits, classical, qmud))
    return results


def test_criterion_8_noiseless_end_to_end_equivalence():
    with criterion(8, "noiseless equivalence across detectors", 5.0):
        # Singleton registers (no interferers, no noise lattice): every
        # measurement is conclusive, so the quantum receiver decides each
        # pattern in exactly one repetition.
        single = make_orthogonal(K=1, PG=4)
        for bits, classical, qmud in _decode_all_patterns(single, reps_max=1, seed=8):
            for name, decided in classical.items():
                assert decided == bits, name
            assert all(d.kind.bit_value == b for d, b in zip(qmud, bits))
            assert all(d.reps_used == 1 for d in qmud)

        # Two orthogonal users: registers hold one index per interferer
        # pattern, so conclusive probability is 1/2 per block and a deep
        # repetition budget makes every decision conclusive and correct.
        double = make_orthogonal(K=2, PG=4)
        for bits, classical, qmud in _decode_all_patterns(double, reps_max=64, seed=88):
            for name, decided in classical.items():
                assert decided == bits, name
            assert all(d.kind.bit_value == b for d, b in zip(qmud, bits))


def test_criterion_9_reproducible_csv(tmp_path):
    with criterion(9, "byte-identical reruns", 10.0):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(RECEIVER_CONFIG))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--config", str(cfg), "--trials", "200", "--seed", "11"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

        sweep_args = ["sweep", "--config", str(cfg), "--param", "noise_sigma",
                      "--values", "0,0.1", "--trials", "50", "--seed", "3"]
        assert main(sweep_args + ["--out", str(out_a)]) == 0
        assert main(sweep_args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
