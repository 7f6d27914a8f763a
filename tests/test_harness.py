import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_orthogonal, make_scenario, random_unit_signatures
from qmud import (Decision, DetectorKind, QuantizerSpec, detectors, harness, registers,
                  run_trials, sweep, walsh_hadamard_signatures)
from qmud.cdma import correlation_matrix
from qmud.config import default_amplitude
from qmud.detectors import RESIDUAL_BYTES
from qmud.errors import (BudgetExceeded, KTooLarge, SingularMatrix, UnknownParameter,
                         ValidationError)
from qmud.harness import ALL_DETECTORS, BLOCK_TRIALS, _Prepared, _run_block
from qmud.povm import DECISIONS
from scalar_reference import (block_lists, reference_hypotheses, reference_registers,
                              reference_report, reference_rows, stack_rows)


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
        prep = _Prepared(sc)
        regs = reference_registers(sc)
        block = _run_block(prep, 11, 0, 300)
        indices = registers.pack_basis(block.received_codes, sc.quantizer)
        for v, codes in zip(indices.tolist(), block.qmud.tolist()):
            for k in range(sc.K):
                kind = DECISIONS[codes[k]]
                in1 = v in regs[(k, 1)].members
                in0 = v in regs[(k, -1)].members
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
        prep = _Prepared(sc)
        block = _run_block(prep, 2, 0, 200)
        for codes, sud, bits in zip(block.qmud.tolist(),
                                    block.decisions[DetectorKind.SUD].tolist(),
                                    block.bits.tolist()):
            for k in range(sc.K):
                bit = DECISIONS[codes[k]].bit_value
                if bit is not None:
                    assert bit == sud[k]
                    assert bit == bits[k]

    def test_zero_trials_rejected(self, two_user_scenario):
        with pytest.raises(ValidationError):
            run_trials(two_user_scenario, trials=0)

    def test_reports_are_bit_identical(self):
        sc = _nonorthogonal_noisy()
        a = run_trials(sc, trials=150, master_seed=9)
        b = run_trials(sc, trials=150, master_seed=9)
        assert a == b

    def test_every_detector_and_the_receiver_reported(self, two_user_scenario):
        report = run_trials(two_user_scenario, trials=10, master_seed=0)
        assert tuple(report.detector_bit_errors) == ALL_DETECTORS
        assert isinstance(report.qmud, harness.QmudStats)

    def test_run_path_never_packs(self, monkeypatch):
        # The bank reads the received chip codes as they are: neither a run
        # nor a sweep that rebuilds the bank at each point packs an index.
        def packing(*args):
            raise AssertionError("chip codes packed on the run path")

        monkeypatch.setattr(registers, "pack_basis", packing)
        monkeypatch.setattr(harness, "pack_basis", packing)
        sc = _nonorthogonal_noisy()
        assert run_trials(sc, trials=50, master_seed=1).trials == 50
        assert len(sweep(sc, "gamma", [0, 1], trials=50, master_seed=1)) == 2

    def test_trial_errors_carry_trial_context(self, monkeypatch):
        # Trials run in blocks, so an error raised while a block is built
        # names the block's trial range.
        def failing(*args):
            raise SingularMatrix("injected")

        monkeypatch.setattr(harness, "noiseless_waveforms", failing)
        with pytest.raises(SingularMatrix, match="trials 0–4: injected"):
            run_trials(make_scenario(), trials=5, master_seed=0)

    def test_errors_name_the_failing_block(self, monkeypatch):
        # A failure in the second block names that block's trials.
        blocks = []
        real = harness.noiseless_waveforms

        def failing_second(*args):
            blocks.append(len(args[2]))
            if len(blocks) == 2:
                raise SingularMatrix("injected")
            return real(*args)

        monkeypatch.setattr(harness, "noiseless_waveforms", failing_second)
        with pytest.raises(SingularMatrix,
                           match=f"trials {BLOCK_TRIALS}–{2 * BLOCK_TRIALS - 1}: injected"):
            run_trials(make_scenario(), trials=2 * BLOCK_TRIALS + 5, master_seed=0)
        assert blocks == [BLOCK_TRIALS, BLOCK_TRIALS]


class TestReceiverClosedForm:
    def test_inconclusive_counts_match_the_closed_form(self):
        # Noiseless, so every received index lies in its true-bit register.
        # Each round, an open bank concludes with probability 1/N_s whether
        # or not it stores the index, so within reps_max rounds it concludes
        # with q = 1 - (1 - 1/N_s)^reps_max, and a user is inconclusive with
        # probability 1 - q1 q0.  N_s comes from the scalar enumeration.
        sc = make_orthogonal(K=2, PG=2, gamma=1,
                             quantizer=QuantizerSpec(n_ch=3, amplitude=1.5 * math.sqrt(2)))
        n_s = {(k, b): len(reference_hypotheses(sc, k, b)) for k in range(2) for b in (1, -1)}
        trials = 2 * BLOCK_TRIALS + 1
        values = (1, 2, 4, 8, 16)
        for reps_max, report in zip(values, sweep(sc, "reps_max", values, trials, 3)):
            p = np.array([1 - np.prod([1 - (1 - 1 / n_s[k, b]) ** reps_max for b in (1, -1)])
                          for k in range(2)])
            mean, sd = trials * p.sum(), math.sqrt(trials * (p * (1 - p)).sum())
            assert report.qmud.coverage_miss == 0
            assert abs(report.qmud.inconclusive - mean) <= 5 * sd, (reps_max, mean, sd)


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
        reports = sweep(sc, "noise_sigma", [0.0, 0.05, 0.1], trials=400, master_seed=4)
        bers = [r.ber(DetectorKind.SUD) for r in reports]
        assert all(a <= b for a, b in zip(bers, bers[1:]))

    def test_common_random_numbers_across_points(self):
        sc = _nonorthogonal_noisy()
        prep = _Prepared(sc)
        prep_low = _Prepared(sc.with_overrides(noise_sigma=0.0))
        a = _run_block(prep, 8, 0, 20)
        b = _run_block(prep_low, 8, 0, 20)
        assert a.bits.tolist() == b.bits.tolist()

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
    @staticmethod
    def _spy(monkeypatch):
        """Record every condition check, every bank build and each block's _Prepared."""
        conds, preps = [], []
        real_cond, real_block = np.linalg.cond, harness._run_block
        monkeypatch.setattr(np.linalg, "cond", lambda M: conds.append(M) or real_cond(M))
        monkeypatch.setattr(harness, "_run_block",
                            lambda prep, *args: preps.append(prep) or real_block(prep, *args))
        return conds, _count_builds(monkeypatch), preps

    @pytest.mark.parametrize("param,values", [("noise_sigma", [0.0, 0.1, 0.2]),
                                              ("reps_max", [1, 3, 6])])
    def test_register_neutral_sweep_builds_once(self, monkeypatch, param, values):
        # Each point inherits R and the bank from the point before it, so R
        # is checked once, and keeps its own scenario and noise variance.
        conds, builds, preps = self._spy(monkeypatch)
        sweep(_nonorthogonal_noisy(), param, values, trials=20, master_seed=1)
        assert len(conds) == len(builds) == 1
        assert len(preps) == len({id(p) for p in preps}) == len(values)
        assert all(p.R is preps[0].R and p.bank is preps[0].bank for p in preps)
        assert [getattr(p.scenario, param) for p in preps] == values
        assert [p.noise_variance for p in preps] == [
            p.scenario.noise_sigma ** 2 for p in preps]

    @pytest.mark.parametrize("param,values", [("gamma", [0, 1, 2]), ("N_ch", [2, 3, 4]),
                                              ("gamma", [0, 1, 0]), ("N_ch", [2, 3, 2])])
    def test_register_defining_sweep_rebuilds_every_point(self, monkeypatch, param, values):
        # Reuse comes from the previous point only: a value met again two
        # points later is checked and built again.
        conds, builds, preps = self._spy(monkeypatch)
        sweep(_nonorthogonal_noisy(), param, values, trials=20, master_seed=1)
        assert len(conds) == len(builds) == len(values)
        assert len({id(p.bank) for p in preps}) == len(values)

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


class TestDegenerateScenarios:
    # Three users on two chips: R has rank 2.
    SINGULAR = dict(K=3, PG=2, signatures=((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)),
                    energies=(1.0,) * 3, gains=(1.0,) * 3)

    # 21 users on 21 orthogonal chips: R = I passes every condition check,
    # but the exhaustive search is capped at 20 users.  One bit per chip
    # keeps N_Q = 21 within the register cap.
    TOO_MANY = dict(K=21, PG=21, signatures=tuple(map(tuple, np.eye(21))),
                    energies=(1.0,) * 21, gains=(1.0,) * 21,
                    quantizer=QuantizerSpec(n_ch=1, amplitude=1.5))

    def test_singular_r_fails_before_any_register_build(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        with pytest.raises(SingularMatrix):
            run_trials(make_scenario(**self.SINGULAR), trials=3, master_seed=0)
        with pytest.raises(SingularMatrix):
            sweep(make_scenario(**self.SINGULAR), "noise_sigma", [0.1], trials=3,
                  master_seed=0)
        assert builds == []

    @pytest.mark.parametrize("kind", [DetectorKind.DECORRELATOR, DetectorKind.OPTIMAL])
    def test_each_inverting_detector_is_checked(self, monkeypatch, kind):
        # A singular R fails the condition check, the first; R = I at K=21
        # passes it and fails the optimal search's user cap, the last.
        # Either way a sweep stops before any build.
        scenario, error, detect, checks = {
            DetectorKind.DECORRELATOR: (make_scenario(**self.SINGULAR), SingularMatrix,
                                        detectors.decorrelate_detect, ["condition"]),
            DetectorKind.OPTIMAL: (make_scenario(**self.TOO_MANY), KTooLarge,
                                   detectors.optimal_detect, ["condition", "user cap"])}[kind]
        with pytest.raises(error):
            detect(np.zeros(scenario.K), correlation_matrix(scenario))
        order = []
        real_condition, real_cap = harness._check_condition, harness.check_user_cap
        monkeypatch.setattr(harness, "_check_condition",
                            lambda M: order.append("condition") or real_condition(M))
        monkeypatch.setattr(harness, "check_user_cap",
                            lambda R: order.append("user cap") or real_cap(R))
        builds = _count_builds(monkeypatch)
        with pytest.raises(error):
            sweep(scenario, "noise_sigma", [0.1], trials=3, master_seed=0)
        assert order == checks
        assert builds == []

    def test_mmse_needs_no_check_of_its_own(self, monkeypatch):
        # Only R is checked: R + sigma^2 I is never better conditioned, so
        # its check could not decide a run, and Scenario keeps its
        # diagonal finite.
        checked = []
        real = harness._check_condition
        monkeypatch.setattr(harness, "_check_condition",
                            lambda M: checked.append(M.copy()) or real(M))
        for sc in (_nonorthogonal_noisy(), _nonorthogonal_noisy(noise_sigma=0.0)):
            checked.clear()
            _Prepared(sc)
            R = correlation_matrix(sc)
            assert len(checked) == 1
            np.testing.assert_array_equal(checked[0], R)
            M = R + sc.noise_sigma ** 2 * np.eye(sc.K)
            assert np.linalg.cond(M) <= np.linalg.cond(R)

    def test_setup_checks_run_in_detector_order(self, monkeypatch):
        # The condition check of R, which the decorrelator and the optimal
        # search share, runs once, then the optimal search's user cap, and
        # both before the bank is built.
        order = []
        real_condition, real_cap, real_build = (harness._check_condition,
                                                harness.check_user_cap, harness.build_bank)
        monkeypatch.setattr(harness, "_check_condition",
                            lambda M: order.append("condition") or real_condition(M))
        monkeypatch.setattr(harness, "check_user_cap",
                            lambda R: order.append("user cap") or real_cap(R))
        monkeypatch.setattr(harness, "build_bank",
                            lambda sc: order.append("build") or real_build(sc))
        _Prepared(_nonorthogonal_noisy())
        assert order == ["condition", "user cap", "build"]
        # 21 users on one chip: R is all ones, singular, and too large for
        # the exhaustive search; the decorrelator's check fails first, with
        # or without noise, so the optimal search's KTooLarge never shows.
        one_chip = make_scenario(K=21, PG=1, signatures=((1.0,),) * 21, energies=(1.0,) * 21,
                                 gains=(1.0,) * 21)
        for sc in (one_chip, one_chip.with_overrides(noise_sigma=0.1)):
            with pytest.raises(KTooLarge):
                detectors.optimal_detect(np.zeros(sc.K), correlation_matrix(sc))
            order.clear()
            with pytest.raises(SingularMatrix):
                _Prepared(sc)
            assert order == ["condition"]

    def test_setup_raises_what_the_first_failing_detector_raises_on_a_row(self, monkeypatch):
        # _Prepared runs the matrix checks without a detection; it must
        # reject (or accept) a scenario exactly as the decorrelator, MMSE
        # and optimal detectors, in that order, do on a row.  21 users on
        # one chip make R all ones, singular and too large for the
        # exhaustive search: the decorrelator's check of R fails first, with
        # or without noise.
        builds = _count_builds(monkeypatch)
        one_chip = make_scenario(K=21, PG=1, signatures=((1.0,),) * 21, energies=(1.0,) * 21,
                                 gains=(1.0,) * 21)
        cases = [make_scenario(**self.SINGULAR), make_scenario(**self.SINGULAR, noise_sigma=0.1),
                 _nonorthogonal_noisy(), one_chip, one_chip.with_overrides(noise_sigma=0.1),
                 make_scenario(**self.TOO_MANY)]
        raised = []
        for sc in cases:
            R, var = correlation_matrix(sc), sc.noise_sigma ** 2
            zeros = np.zeros(sc.K)
            try:
                detectors.decorrelate_detect(zeros, R)
                detectors.mmse_detect(zeros, R, var)
                detectors.optimal_detect(zeros, R)
            except (SingularMatrix, KTooLarge) as error:
                raised.append(type(error))
                with pytest.raises(type(error)) as info:
                    _Prepared(sc)
                assert str(info.value) == str(error)
            else:
                raised.append(None)
                _Prepared(sc)
        assert raised == [SingularMatrix, SingularMatrix, None, SingularMatrix, SingularMatrix,
                          KTooLarge]
        assert builds == [cases[2]]

    def test_singular_r_fails_before_any_trial(self, monkeypatch):
        blocks = []
        monkeypatch.setattr(harness, "_run_block", lambda *args: blocks.append(args))
        with pytest.raises(SingularMatrix) as info:
            run_trials(make_scenario(**self.SINGULAR), trials=3, master_seed=0)
        assert blocks == []
        assert "trial" not in str(info.value)

    def test_too_many_users_for_optimal_fails_before_any_trial(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        blocks = []
        monkeypatch.setattr(harness, "_run_block", lambda *args: blocks.append(args))
        with pytest.raises(KTooLarge):
            run_trials(make_scenario(**self.TOO_MANY), trials=3, master_seed=0)
        assert builds == [] and blocks == []

    def test_over_budget_scenario_fails_before_any_box_and_trial_0(self, monkeypatch):
        boxes, blocks = [], []
        real = registers._chip_codes
        monkeypatch.setattr(registers, "_chip_codes",
                            lambda *args: boxes.append(args) or real(*args))
        monkeypatch.setattr(harness, "_run_block", lambda *args: blocks.append(args))
        sc = make_scenario(gamma=20)  # 41**4 * 2 hypotheses per register > 1e6
        with pytest.raises(BudgetExceeded):
            run_trials(sc, trials=3, master_seed=0)
        with pytest.raises(BudgetExceeded):
            sweep(sc, "noise_sigma", [0.0, 0.1], trials=3, master_seed=0)
        assert boxes == [] and blocks == []


@st.composite
def _engine_cases(draw):
    PG = draw(st.integers(1, 4))
    K = draw(st.integers(1, PG))  # K <= PG: random signatures give an invertible R
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
    trials = draw(st.sampled_from([1, BLOCK_TRIALS - 1, BLOCK_TRIALS + 1]))
    return scenario, trials, draw(st.integers(0, trials - 1)), draw(st.integers(0, 2**64 - 1))


class TestBlockEngine:
    @given(_engine_cases())
    @settings(max_examples=50, deadline=None)
    def test_blocks_equal_the_per_trial_loop(self, case):
        # The per-trial loop runs once, over trials 0 .. trials - 1: the
        # block from trial 0, the block from a later trial t0 and the
        # run_trials report all compare with its rows.
        scenario, trials, t0, seed = case
        prep = _Prepared(scenario)
        rows = reference_rows(prep, reference_registers(scenario), 0, trials, seed)
        assert block_lists(_run_block(prep, seed, 0, trials)) == block_lists(stack_rows(rows))
        assert block_lists(_run_block(prep, seed, t0, trials - t0)) == block_lists(
            stack_rows(rows[t0:]))
        assert run_trials(scenario, trials, seed) == reference_report(scenario, rows, seed)

    def test_one_trial_block_is_the_per_trial_loop(self):
        prep = _Prepared(_nonorthogonal_noisy())
        regs = reference_registers(prep.scenario)
        for t in (0, 1, 2**33):
            assert block_lists(_run_block(prep, 5, t, 1)) == block_lists(
                stack_rows(reference_rows(prep, regs, t, 1, 5)))

    def test_condition_checked_only_before_trial_0(self, monkeypatch):
        calls = []
        real = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda M: calls.append(M) or real(M))
        sc = _nonorthogonal_noisy()
        _Prepared(sc)
        warm_up = len(calls)
        assert warm_up == 1  # R's one condition check, shared by decorrelator and optimal
        run_trials(sc, trials=500, master_seed=1)
        assert len(calls) == 2 * warm_up

    def test_block_memory_does_not_grow_with_trials(self):
        # 3000 trials' optimal-detector residuals at K=12 would take 1.2 GB;
        # the engine holds one slice of at most RESIDUAL_BYTES at a time
        # (3.8 MB traced peak here, as at 10000 trials; the register bank's
        # build alone peaks at 3.1 MB, while quantizing its 4096 box rows,
        # not in its 28 KB of row bitsets or its one N_s slice).
        K = 12
        sc = make_scenario(K=K, PG=16, signatures=walsh_hadamard_signatures(K, 16),
                           energies=(1.0,) * K, gains=(1.0,) * K, noise_sigma=0.5,
                           quantizer=QuantizerSpec(n_ch=1, amplitude=1.0))
        tracemalloc.start()
        try:
            run_trials(sc, trials=3000, master_seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * RESIDUAL_BYTES
