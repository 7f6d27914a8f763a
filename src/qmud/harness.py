"""Reproducible Monte Carlo experiments.

Each trial draws uniform bits, synthesizes the received waveform, runs the
classical detector bank on the matched-filter outputs, quantizes the
waveform into a basis index, and runs the quantum receiver per user against
hypothesis registers built once per scenario; a sweep builds them again
only at points that change a field the registers depend on.  Trial t's
stream is seeded with derive_seed(master_seed, t); within a trial the draw
order is fixed (K bit uniforms, PG noise normals, then the users'
measurement draws in ascending user order), so every aggregate is
bit-reproducible.

Sweeps reuse the same master seed at every parameter value: matching trial
indices see identical bits and identical standard-normal noise (common
random numbers), which makes monotonicity comparisons across values
low-variance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cdma import correlation_matrix, matched_filter, transmit
from .config import Scenario, scenario_digest
from .detectors import (DetectorKind, decorrelate_detect, mmse_detect,
                        optimal_detect, sud_detect)
from .errors import QmudError, UnknownParameter, ValidationError
from .povm import Decision, UserDecision, detect_user
from .registers import enumerate_hypotheses, pack_basis, quantize_waveform
from .rng import SplitMix64, derive_seed

ALL_DETECTORS = (DetectorKind.SUD, DetectorKind.DECORRELATOR,
                 DetectorKind.MMSE, DetectorKind.OPTIMAL)

SWEEPABLE = ("noise_sigma", "reps_max", "gamma", "N_ch")


@dataclass(frozen=True)
class TrialRecord:
    """Everything observed in one trial; kept for audits and tests."""

    trial_index: int
    true_bits: tuple[int, ...]
    detector_decisions: dict
    qmud_decisions: tuple[UserDecision, ...] | None
    received_index: int | None
    coverage_miss: tuple[bool, ...] | None
    reps_used: tuple[int, ...] | None


@dataclass(frozen=True)
class QmudStats:
    """Per-(trial, user) decision categories; they partition trials*K.

    Slots whose received index escaped the true-bit register are counted
    only under coverage_miss; the remaining slots split by decision.
    false_decisions counts wrong bit decisions outside coverage misses and
    is provably zero.
    """

    correct: int
    false_decisions: int
    no_message: int
    ambiguous: int
    inconclusive: int
    coverage_miss: int
    mean_reps: float


@dataclass(frozen=True)
class MetricsReport:
    scenario_id: str
    users: int
    trials: int
    seed: int
    detector_bit_errors: dict
    qmud: QmudStats | None
    param_name: str | None = None
    param_value: float | None = None

    def ber(self, kind: DetectorKind) -> float:
        return self.detector_bit_errors[kind] / (self.trials * self.users)


class _RegisterCache:
    """The register bank for the most recent register-defining fields.

    The key holds every scenario field enumerate_hypotheses reads, so a
    noise_sigma or reps_max sweep builds its bank once.  A new key drops
    the old bank before building its own: two banks never coexist.
    """

    def __init__(self):
        self._key = None
        self._registers = None

    def registers(self, scenario: Scenario) -> dict:
        key = (scenario.signatures, scenario.energies, scenario.gains,
               scenario.quantizer, scenario.gamma, scenario.delays)
        if key != self._key:
            self._key = self._registers = None
            self._registers = {(k, bit): enumerate_hypotheses(scenario, k, bit)
                               for k in range(scenario.K) for bit in (1, -1)}
            self._key = key
        return self._registers


class _Prepared:
    """Everything a trial reads, built once per scenario.

    Holds the scenario, the selected detector kinds, R and, with
    include_qmud, the register bank.  Each selected detector first runs
    once on a zero soft vector, so its own checks (SingularMatrix,
    KTooLarge) reject a degenerate scenario before any register build and
    before trial 0, with or without registers.
    """

    def __init__(self, scenario: Scenario, include_qmud: bool, kinds=ALL_DETECTORS,
                 cache: _RegisterCache | None = None):
        self.scenario = scenario
        self.kinds = kinds
        self.R = correlation_matrix(scenario)
        self.noise_variance = scenario.noise_sigma ** 2
        _run_detectors(np.zeros(scenario.K), self)
        self.registers = ((cache or _RegisterCache()).registers(scenario)
                          if include_qmud else None)


def _run_detectors(soft, prep: _Prepared):
    out = {}
    for kind in prep.kinds:
        if kind is DetectorKind.SUD:
            dec = sud_detect(soft)
        elif kind is DetectorKind.DECORRELATOR:
            dec = decorrelate_detect(soft, prep.R)
        elif kind is DetectorKind.MMSE:
            dec = mmse_detect(soft, prep.R, prep.noise_variance)
        else:
            dec = optimal_detect(soft, prep.R)
        out[kind] = tuple(int(b) for b in dec)
    return out


def run_single_trial(prep: _Prepared, trial_index: int, master_seed: int) -> TrialRecord:
    scenario = prep.scenario
    rng = SplitMix64(derive_seed(master_seed, trial_index))
    bits = tuple(1 if rng.uniform() < 0.5 else -1 for _ in range(scenario.K))
    received = transmit(scenario, bits, rng)
    soft = matched_filter(received, scenario)
    decisions = _run_detectors(soft, prep)

    qmud_decisions = None
    v = None
    misses = None
    reps = None
    if prep.registers is not None:
        v = pack_basis(quantize_waveform(received, scenario.quantizer), scenario.quantizer)
        per_user = []
        for k in range(scenario.K):
            per_user.append(detect_user(prep.registers[(k, 1)], prep.registers[(k, -1)],
                                        v, scenario.reps_max, rng))
        qmud_decisions = tuple(per_user)
        misses = tuple(v not in prep.registers[(k, bits[k])] for k in range(scenario.K))
        reps = tuple(d.reps_used for d in per_user)
    return TrialRecord(trial_index, bits, decisions, qmud_decisions, v, misses, reps)


def run_trials(scenario: Scenario, detectors=ALL_DETECTORS, include_qmud: bool = True,
               trials: int = 1000, master_seed: int = 0) -> MetricsReport:
    """Run the full pipeline for `trials` symbols and aggregate counts."""
    return _run_trials(scenario, detectors, include_qmud, trials, master_seed,
                       _RegisterCache())


def _run_trials(scenario: Scenario, detectors, include_qmud: bool, trials: int,
                master_seed: int, cache: _RegisterCache) -> MetricsReport:
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    kinds = tuple(k for k in ALL_DETECTORS if k in set(detectors))
    prep = _Prepared(scenario, include_qmud, kinds, cache)

    bit_errors = {k: 0 for k in kinds}
    correct = false_dec = no_msg = ambiguous = inconclusive = miss_count = 0
    reps_total = 0

    for t in range(trials):
        try:
            rec = run_single_trial(prep, t, master_seed)
        except QmudError as exc:
            raise type(exc)(f"trial {t}: {exc}") from exc
        for kind in kinds:
            bit_errors[kind] += sum(
                d != b for d, b in zip(rec.detector_decisions[kind], rec.true_bits))
        if include_qmud:
            reps_total += sum(rec.reps_used)
            for k in range(scenario.K):
                if rec.coverage_miss[k]:
                    miss_count += 1
                    continue
                kind = rec.qmud_decisions[k].kind
                if kind in (Decision.BIT_ONE, Decision.BIT_ZERO):
                    if kind.bit_value == rec.true_bits[k]:
                        correct += 1
                    else:
                        false_dec += 1
                elif kind is Decision.NO_MESSAGE:
                    no_msg += 1
                elif kind is Decision.AMBIGUOUS:
                    ambiguous += 1
                else:
                    inconclusive += 1

    qmud_stats = None
    if include_qmud:
        qmud_stats = QmudStats(correct, false_dec, no_msg, ambiguous, inconclusive,
                               miss_count, reps_total / (trials * scenario.K))
    return MetricsReport(scenario_digest(scenario), scenario.K, trials, master_seed,
                         bit_errors, qmud_stats)


def _apply_parameter(scenario: Scenario, name: str, value) -> Scenario:
    # Scenario and QuantizerSpec reject a fractional count.
    if name == "N_ch":
        return scenario.with_overrides(quantizer=replace(scenario.quantizer, n_ch=value))
    return scenario.with_overrides(**{name: value})


def sweep(scenario: Scenario, parameter: str, values, trials: int, master_seed: int,
          detectors=ALL_DETECTORS, include_qmud: bool = True) -> list[MetricsReport]:
    """One report per parameter value, in order, under common random numbers.

    Consecutive points that agree on every register-defining field share
    one register bank.
    """
    if parameter not in SWEEPABLE:
        raise UnknownParameter(f"cannot sweep {parameter!r}; choose one of {SWEEPABLE}")
    cache = _RegisterCache()
    reports = []
    for value in values:
        modified = _apply_parameter(scenario, parameter, value)
        report = _run_trials(modified, detectors, include_qmud, trials, master_seed, cache)
        reports.append(replace(report, param_name=parameter, param_value=float(value)))
    return reports
