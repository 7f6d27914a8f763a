import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_orthogonal, make_scenario, random_unit_signatures
from qmud import (Decision, DetectorKind, QuantizerSpec, harness, registers, run_trials,
                  sweep, walsh_hadamard_signatures)
from qmud.config import default_amplitude
from qmud.detectors import RESIDUAL_BYTES
from qmud.errors import (BudgetExceeded, KTooLarge, SingularMatrix, UnknownParameter,
                         ValidationError)
from qmud.harness import (ALL_DETECTORS, BLOCK_TRIALS, _Prepared, _RegisterCache,
                          _run_block, run_single_trial)
from scalar_reference import reference_registers, reference_report, reference_trial


def _count_builds(monkeypatch) -> list:
    """Record every register bank build the harness starts."""
    builds = []
    real = harness.build_bank

    def counting(scenario):
        builds.append(scenario)
        return real(scenario)

    monkeypatch.setattr(harness, "build_bank", counting)
    return builds


def _nonorthogonal_noisy(**overrides):
    # Cross-correlation 0.5 with PG=2; coverage-respecting noise at half the
    # lattice reach (sigma = gamma * step / 2).
    signatures = ((1.0, 0.0), (0.5, math.sqrt(0.75)))
    amp = default_amplitude(signatures, (1.0, 1.0), (1.0, 1.0))
    quantizer = QuantizerSpec(n_ch=3, amplitude=amp)
    params = dict(K=2, PG=2, signatures=signatures, gamma=1, reps_max=6,
                  quantizer=quantizer, noise_sigma=quantizer.step / 2)
    params.update(overrides)
    return make_scenario(**params)


class TestRunTrials:
    def test_noiseless_single_user_is_fully_conclusive(self):
        sc = make_orthogonal(K=1, PG=4, reps_max=4)
        report = run_trials(sc, trials=200, master_seed=1)
        q = report.qmud
        assert q.correct == 200
        assert q.false_decisions == q.no_message == q.ambiguous == 0
        assert q.inconclusive == q.coverage_miss == 0
        assert q.mean_reps == 1.0
        assert all(report.detector_bit_errors[k] == 0 for k in ALL_DETECTORS)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 2.5])
    def test_out_of_range_master_seed_rejected(self, monkeypatch, seed):
        builds = _count_builds(monkeypatch)
        with pytest.raises(ValidationError, match="seed"):
            run_trials(make_orthogonal(K=1, PG=4), trials=1, master_seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            sweep(make_orthogonal(K=1, PG=4), "noise_sigma", [0.0], 1, seed)
        assert builds == []

    def test_category_accounting_partitions_all_slots(self):
        report = run_trials(_nonorthogonal_noisy(), trials=500, master_seed=3)
        q = report.qmud
        total = (q.correct + q.false_decisions + q.no_message + q.ambiguous
                 + q.inconclusive + q.coverage_miss)
        assert total == 500 * 2

    def test_no_false_decisions_under_coverage_respecting_noise(self):
        report = run_trials(_nonorthogonal_noisy(), trials=2000, master_seed=5)
        assert report.qmud.false_decisions == 0
        assert report.qmud.correct > 0

    def test_decision_soundness_against_register_membership(self):
        # Every conclusive bit points at the register that actually holds
        # the received index; no-message means neither register holds it.
        sc = _nonorthogonal_noisy()
        prep = _Prepared(sc, include_qmud=True, kinds=())
        regs = reference_registers(sc)
        for t in range(300):
            rec = run_single_trial(prep, t, master_seed=11)
            for k in range(sc.K):
                kind = rec.qmud_decisions[k].kind
                in1 = rec.received_index in regs[(k, 1)].members
                in0 = rec.received_index in regs[(k, -1)].members
                if kind is Decision.BIT_ONE:
                    assert in1 and not in0
                elif kind is Decision.BIT_ZERO:
                    assert in0 and not in1
                elif kind is Decision.NO_MESSAGE:
                    assert not in1 and not in0
                elif kind is Decision.AMBIGUOUS:
                    assert in1 and in0

    def test_conclusive_decisions_match_sud_in_trivial_regime(self):
        sc = make_orthogonal(K=2, PG=4, reps_max=32)
        prep = _Prepared(sc, include_qmud=True, kinds=(DetectorKind.SUD,))
        for t in range(200):
            rec = run_single_trial(prep, t, master_seed=2)
            for k in range(sc.K):
                bit = rec.qmud_decisions[k].kind.bit_value
                if bit is not None:
                    assert bit == rec.detector_decisions[DetectorKind.SUD][k]
                    assert bit == rec.true_bits[k]

    def test_zero_trials_rejected(self, two_user_scenario):
        with pytest.raises(ValidationError):
            run_trials(two_user_scenario, trials=0)

    def test_reports_are_bit_identical(self):
        sc = _nonorthogonal_noisy()
        a = run_trials(sc, trials=150, master_seed=9)
        b = run_trials(sc, trials=150, master_seed=9)
        assert a == b

    def test_detector_subset_respected(self, two_user_scenario):
        report = run_trials(two_user_scenario, detectors=(DetectorKind.SUD,),
                            include_qmud=False, trials=10, master_seed=0)
        assert set(report.detector_bit_errors) == {DetectorKind.SUD}
        assert report.qmud is None

    def test_trial_errors_carry_trial_context(self, monkeypatch):
        # Trials run in blocks, so an error raised while a block is built
        # names the block's trial range.
        def failing(*args):
            raise SingularMatrix("injected")

        monkeypatch.setattr(harness, "noiseless_waveforms", failing)
        with pytest.raises(SingularMatrix, match="trials 0–4: injected"):
            run_trials(make_scenario(), detectors=(DetectorKind.DECORRELATOR,),
                       include_qmud=False, trials=5, master_seed=0)


class TestSweep:
    def test_inconclusive_rate_non_increasing_in_budget(self):
        # Single user keeps trial streams aligned across budget values, so
        # the geometric decay shows up as exact per-trial monotonicity.
        inv = 1.0 / math.sqrt(2.0)
        sc = make_scenario(K=1, PG=2, signatures=((inv, inv),), energies=(1.0,),
                           gains=(1.0,), gamma=1,
                           quantizer=QuantizerSpec(n_ch=3, amplitude=1.1))
        reports = sweep(sc, "reps_max", [1, 2, 4, 8], trials=400, master_seed=21)
        rates = [r.qmud.inconclusive for r in reports]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[0] > rates[-1]

    def test_empty_value_list(self, two_user_scenario):
        assert sweep(two_user_scenario, "noise_sigma", [], 10, 0) == []

    def test_sud_ber_non_decreasing_in_noise(self):
        sc = _nonorthogonal_noisy(gamma=0, reps_max=1)
        reports = sweep(sc, "noise_sigma", [0.0, 0.05, 0.1], trials=400,
                        master_seed=4, include_qmud=False)
        bers = [r.ber(DetectorKind.SUD) for r in reports]
        assert all(a <= b for a, b in zip(bers, bers[1:]))

    def test_common_random_numbers_across_points(self):
        sc = _nonorthogonal_noisy()
        prep = _Prepared(sc, include_qmud=False, kinds=())
        prep_low = _Prepared(sc.with_overrides(noise_sigma=0.0), include_qmud=False, kinds=())
        for t in range(20):
            a = run_single_trial(prep, t, master_seed=8)
            b = run_single_trial(prep_low, t, master_seed=8)
            assert a.true_bits == b.true_bits

    def test_unknown_parameter(self, two_user_scenario):
        with pytest.raises(UnknownParameter):
            sweep(two_user_scenario, "amplitude", [1.0], 10, 0)

    def test_param_metadata_recorded(self, two_user_scenario):
        reports = sweep(two_user_scenario, "reps_max", [1, 2], trials=5, master_seed=0)
        assert [(r.param_name, r.param_value) for r in reports] == [
            ("reps_max", 1.0), ("reps_max", 2.0)]

    def test_non_integer_value_for_integer_parameter(self, two_user_scenario):
        with pytest.raises(ValidationError):
            sweep(two_user_scenario, "gamma", [1.5], 5, 0)


class TestRegisterReuse:
    @pytest.mark.parametrize("param,values", [("noise_sigma", [0.0, 0.1, 0.2]),
                                              ("reps_max", [1, 3, 6])])
    def test_register_neutral_sweep_builds_once(self, monkeypatch, param, values):
        builds = _count_builds(monkeypatch)
        sweep(_nonorthogonal_noisy(), param, values, trials=20, master_seed=1)
        assert len(builds) == 1

    @pytest.mark.parametrize("param,values", [("gamma", [0, 1, 2]), ("N_ch", [2, 3, 4])])
    def test_register_defining_sweep_rebuilds_every_point(self, monkeypatch, param, values):
        builds = _count_builds(monkeypatch)
        sweep(_nonorthogonal_noisy(), param, values, trials=20, master_seed=1)
        assert len(builds) == len(values)

    def test_run_trials_builds_its_own_bank(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        sc = _nonorthogonal_noisy()
        run_trials(sc, trials=5, master_seed=0)
        run_trials(sc, trials=5, master_seed=0)
        assert len(builds) == 2

    @pytest.mark.parametrize("param,values", [("noise_sigma", [0.0, 0.1, 0.2]),
                                              ("reps_max", [1, 3, 6]),
                                              ("gamma", [0, 1, 2]),
                                              ("N_ch", [2, 3, 4])])
    def test_sweep_reports_equal_standalone_runs(self, param, values):
        sc = _nonorthogonal_noisy()
        reports = sweep(sc, param, values, trials=150, master_seed=13)
        for value, report in zip(values, reports):
            if param == "N_ch":
                point = sc.with_overrides(
                    quantizer=QuantizerSpec(n_ch=value, amplitude=sc.quantizer.amplitude))
            else:
                point = sc.with_overrides(**{param: value})
            alone = run_trials(point, trials=150, master_seed=13)
            assert report == replace(alone, param_name=param, param_value=float(value))

    def test_new_key_frees_the_old_bank_before_building(self, monkeypatch):
        cache = _RegisterCache()
        old = weakref.ref(cache.bank(_nonorthogonal_noisy(gamma=0)))
        alive_at_build = []
        real = harness.build_bank

        def probing(scenario):
            gc.collect()
            alive_at_build.append(old() is not None)
            return real(scenario)

        monkeypatch.setattr(harness, "build_bank", probing)
        new = cache.bank(_nonorthogonal_noisy(gamma=1))
        assert alive_at_build == [False]
        assert cache.bank(_nonorthogonal_noisy(gamma=1, noise_sigma=0.0)) is new


class TestDegenerateScenarios:
    # Three users on two chips: R has rank 2.
    SINGULAR = dict(K=3, PG=2, signatures=((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)),
                    energies=(1.0,) * 3, gains=(1.0,) * 3)

    def test_singular_r_fails_before_any_register_build(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        with pytest.raises(SingularMatrix):
            run_trials(make_scenario(**self.SINGULAR), trials=3, master_seed=0)
        assert builds == []

    @pytest.mark.parametrize("kind", [DetectorKind.DECORRELATOR, DetectorKind.OPTIMAL])
    def test_each_inverting_detector_is_checked(self, monkeypatch, kind):
        builds = _count_builds(monkeypatch)
        with pytest.raises(SingularMatrix):
            sweep(make_scenario(**self.SINGULAR), "noise_sigma", [0.1], trials=3,
                  master_seed=0, detectors=(kind,))
        assert builds == []

    def test_mmse_checks_its_regularized_matrix(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        sc = make_scenario(**self.SINGULAR)
        with pytest.raises(SingularMatrix):
            run_trials(sc, detectors=(DetectorKind.MMSE,), trials=3, master_seed=0)
        assert builds == []
        # With noise, R + sigma^2 I is invertible and the run goes ahead.
        report = run_trials(sc.with_overrides(noise_sigma=0.1), detectors=(DetectorKind.MMSE,),
                            trials=3, master_seed=0)
        assert len(builds) == 1
        assert report.qmud is not None

    def test_singular_r_without_registers_fails_before_any_trial(self, monkeypatch):
        blocks = []
        monkeypatch.setattr(harness, "_run_block", lambda *args: blocks.append(args))
        with pytest.raises(SingularMatrix) as info:
            run_trials(make_scenario(**self.SINGULAR), include_qmud=False, trials=3,
                       master_seed=0)
        assert blocks == []
        assert "trial" not in str(info.value)

    def test_too_many_users_for_optimal_fails_before_any_trial(self, monkeypatch):
        blocks = []
        monkeypatch.setattr(harness, "_run_block", lambda *args: blocks.append(args))
        sc = make_scenario(K=21, PG=1, signatures=((1.0,),) * 21, energies=(1.0,) * 21,
                           gains=(1.0,) * 21)
        with pytest.raises(KTooLarge):
            run_trials(sc, detectors=(DetectorKind.OPTIMAL,), include_qmud=False,
                       trials=3, master_seed=0)
        assert blocks == []

    def test_over_budget_scenario_fails_before_any_box_and_trial_0(self, monkeypatch):
        boxes, blocks = [], []
        real = registers._pattern_boxes
        monkeypatch.setattr(registers, "_pattern_boxes",
                            lambda *args: boxes.append(args) or real(*args))
        monkeypatch.setattr(harness, "_run_block", lambda *args: blocks.append(args))
        sc = make_scenario(gamma=20)  # 41**4 * 2 hypotheses per register > 1e6
        with pytest.raises(BudgetExceeded):
            run_trials(sc, trials=3, master_seed=0)
        with pytest.raises(BudgetExceeded):
            sweep(sc, "noise_sigma", [0.0, 0.1], trials=3, master_seed=0)
        assert boxes == [] and blocks == []

    def test_detectors_without_inversion_run_on_singular_r(self):
        report = run_trials(make_scenario(**self.SINGULAR), detectors=(DetectorKind.SUD,),
                            trials=3, master_seed=0)
        assert set(report.detector_bit_errors) == {DetectorKind.SUD}


@st.composite
def _engine_cases(draw):
    PG = draw(st.integers(1, 4))
    K = draw(st.integers(1, 4))
    kinds = draw(st.sets(st.sampled_from(ALL_DETECTORS)))
    if K > PG:  # R is singular: only the sign detector applies
        kinds &= {DetectorKind.SUD}
    signatures = random_unit_signatures(np.random.default_rng(draw(st.integers(0, 10**6))),
                                        K, PG)
    gains = tuple(draw(st.sampled_from([1.0, 0.7, 0.3, 0.1])) for _ in range(K))
    amp = default_amplitude(signatures, (1.0,) * K, gains)
    quantizer = QuantizerSpec(n_ch=draw(st.integers(1, 4)), amplitude=amp)
    scenario = make_scenario(
        K=K, PG=PG, signatures=signatures, energies=(1.0,) * K, gains=gains,
        quantizer=quantizer,
        noise_sigma=draw(st.sampled_from([0.0, 0.25, 0.5, 1.5])) * quantizer.step,
        gamma=draw(st.integers(0, 2)),
        delays=tuple(sorted(draw(st.sets(st.integers(0, PG - 1), min_size=1)))),
        reps_max=draw(st.integers(1, 8)))
    return (scenario, tuple(k for k in ALL_DETECTORS if k in kinds), draw(st.booleans()),
            draw(st.sampled_from([1, BLOCK_TRIALS - 1, BLOCK_TRIALS + 1])),
            draw(st.integers(1, 2**40)), draw(st.integers(0, 2**64 - 1)))


class TestBlockEngine:
    @given(_engine_cases())
    @settings(max_examples=50, deadline=None)
    def test_blocks_equal_the_per_trial_loop(self, case):
        scenario, kinds, include_qmud, trials, t0, seed = case
        prep = _Prepared(scenario, include_qmud, kinds)
        regs = reference_registers(scenario) if include_qmud else None
        block = _run_block(prep, seed, t0, trials)
        assert [block.record(i) for i in range(trials)] == [
            reference_trial(prep, regs, t0 + i, seed) for i in range(trials)]
        assert run_trials(scenario, kinds, include_qmud, trials, seed) == reference_report(
            scenario, kinds, include_qmud, trials, seed)

    def test_run_single_trial_is_the_per_trial_loop(self):
        prep = _Prepared(_nonorthogonal_noisy(), include_qmud=True)
        regs = reference_registers(prep.scenario)
        for t in (0, 1, 2**33):
            assert run_single_trial(prep, t, 5) == reference_trial(prep, regs, t, 5)

    def test_condition_checked_only_before_trial_0(self, monkeypatch):
        calls = []
        real = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda M: calls.append(M) or real(M))
        sc = _nonorthogonal_noisy()
        _Prepared(sc, include_qmud=False)
        warm_up = len(calls)
        assert warm_up == 3  # decorrelator, MMSE, optimal
        run_trials(sc, trials=500, master_seed=1)
        assert len(calls) == 2 * warm_up

    def test_block_memory_does_not_grow_with_trials(self):
        # 3000 trials' optimal-detector residuals at K=12 would take 1.2 GB;
        # the engine holds one slice of at most RESIDUAL_BYTES at a time
        # (2.8 MB traced peak here; the per-trial loop's was 1.5 MB).
        K = 12
        sc = make_scenario(K=K, PG=16, signatures=walsh_hadamard_signatures(K, 16),
                           energies=(1.0,) * K, gains=(1.0,) * K, noise_sigma=0.5,
                           quantizer=QuantizerSpec(n_ch=1, amplitude=1.0))
        tracemalloc.start()
        try:
            run_trials(sc, detectors=(DetectorKind.OPTIMAL,), include_qmud=False,
                       trials=3000, master_seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * RESIDUAL_BYTES
