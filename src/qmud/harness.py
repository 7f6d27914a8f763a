"""Reproducible Monte Carlo experiments.

Every run and every sweep point takes one pipeline.  Each trial draws
uniform bits, synthesizes the received waveform, runs the four classical
detectors on the matched-filter outputs, quantizes the waveform into PG
chip codes, and runs the quantum receiver per user against the
scenario's hypothesis registers.  All 2K registers are built at once as
one ``registers.RegisterBank``, once per scenario; a sweep checks R and
builds the bank again only at points that change a field they depend on.
A block hands its received chip codes to the bank once, which gives every
user's membership in both registers and every coverage miss.  Trial t's
stream is seeded with derive_seed(master_seed, t); within a trial the draw
order is fixed (K bit uniforms, PG noise normals, then the users'
measurement draws in ascending user order), so every aggregate is
bit-reproducible.

Trials run in blocks of BLOCK_TRIALS as numpy arrays with a leading trial
axis.  SplitMix64 is counter-based, so ``rng.TrialStreams`` addresses each
trial's n-th draw directly and every trial keeps its own stream and draw
order: a block gives each trial exactly the bits, noise, decisions and
measurement draws that trial gets when run alone.  The block's detectors
are ``detect_rows``, the row code that the per-symbol detectors run on
one row; they skip the per-call condition check, and the scenario's one
check runs in ``_Prepared`` before its register bank is built.  The
optimal search reads only R and the rows: its filter ranks a block's
candidates with one matrix product per slice of rows and chunk of
candidates, so a block's memory stays small at any K.

Sweeps reuse the same master seed at every parameter value: matching trial
indices see identical bits and identical standard-normal noise (common
random numbers), which makes monotonicity comparisons across values
low-variance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cdma import correlation_matrix, matched_filter, noiseless_waveforms
from .config import Scenario, check_seed, scenario_digest
from .detectors import ALL_DETECTORS, DetectorKind, _check_condition, check_user_cap, detect_rows
from .errors import QmudError, UnknownParameter, ValidationError
from .povm import DECISIONS, Decision, detect_user_rows
from .registers import build_bank, quantize_waveform, register_bit
from .rng import TrialStreams

# benchmarks/traced_cli.py wraps these functions on this module, so they
# stay importable from it; the block engine calls none of them.
from .cdma import transmit  # noqa: F401
from .detectors import decorrelate_detect, mmse_detect, optimal_detect, sud_detect  # noqa: F401
from .povm import detect_user  # noqa: F401
from .registers import enumerate_hypotheses, pack_basis  # noqa: F401
from .rng import derive_seed  # noqa: F401

SWEEPABLE = ("noise_sigma", "reps_max", "gamma", "N_ch")

# Trials per block.  A block's arrays grow with it: one 1024-trial block
# peaks at 0.53 MB under tracemalloc for the K=4 nearfar_reps scenario and
# at 1.7 MB for the K=8 dense_sweep one (256 trials: 0.15 and 0.8 MB).
BLOCK_TRIALS = 1024


@dataclass(frozen=True)
class QmudStats:
    """Per-(trial, user) decision categories; they partition trials*K.

    Slots whose received waveform escaped the true-bit register are counted
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
    qmud: QmudStats
    param_name: str | None = None
    param_value: float | None = None

    def ber(self, kind: DetectorKind) -> float:
        return self.detector_bit_errors[kind] / (self.trials * self.users)


class _Prepared:
    """Everything a trial reads, built once per scenario.

    Holds the scenario, R and the register bank.  A sweep point whose
    ``key``, every field that R and build_bank read, equals the one of
    ``previous`` takes its R and bank.  Otherwise R's condition check
    (SingularMatrix), which the decorrelator and the optimal search share,
    runs once, then the optimal search's user cap (KTooLarge): they reject
    a degenerate scenario before the bank is built and before trial 0.
    The MMSE detector's matrix R + sigma^2 I needs no check of its own:
    ``Scenario`` keeps its diagonal finite, and for positive semidefinite
    R, cond(R + sigma^2 I) <= cond(R).
    """

    def __init__(self, scenario: Scenario, previous: _Prepared | None = None):
        self.scenario = scenario
        self.noise_variance = scenario.noise_sigma ** 2
        self.key = (scenario.signatures, scenario.energies, scenario.gains,
                    scenario.quantizer, scenario.gamma, scenario.delays)
        if previous is not None and previous.key == self.key:
            self.R, self.bank = previous.R, previous.bank
        else:
            self.R = correlation_matrix(scenario)
            _check_condition(self.R)
            check_user_cap(self.R)
            self.bank = build_bank(scenario)


@dataclass(frozen=True)
class _Block:
    """A block's T trials as arrays with a leading trial axis.

    ``decisions`` maps each detector kind to (T, K) bits;
    ``received_codes`` holds the (T, PG) chip codes of the received
    waveforms; ``qmud`` codes index povm.DECISIONS.
    """

    bits: np.ndarray
    decisions: dict
    received_codes: np.ndarray
    qmud: np.ndarray
    reps: np.ndarray
    coverage_miss: np.ndarray


def _run_block(prep: _Prepared, master_seed: int, t0: int, count: int) -> _Block:
    """Trials t0 .. t0 + count - 1, each with the draws and results of its own stream."""
    scenario = prep.scenario
    streams = TrialStreams(master_seed, t0, count)
    bits = np.where(streams.uniforms(scenario.K) < 0.5, 1, -1)
    clean = noiseless_waveforms(scenario.amplitude_vector(), scenario.signature_matrix(), bits)
    received = clean + scenario.noise_sigma * streams.normals(scenario.PG)
    soft = matched_filter(received, scenario)
    decisions = detect_rows(soft, prep.R, prep.noise_variance)

    bank = prep.bank
    chip_codes = quantize_waveform(received, scenario.quantizer)
    stored = bank.contains(chip_codes)
    codes = np.empty((count, scenario.K), dtype=np.int64)
    reps = np.empty((count, scenario.K), dtype=np.int64)
    for k in range(scenario.K):
        one, zero = register_bit(k, 1), register_bit(k, -1)
        codes[:, k], reps[:, k] = detect_user_rows(
            stored[:, one], stored[:, zero], bank.n_s[one], bank.n_s[zero],
            scenario.reps_max, streams)
    misses = ~np.take_along_axis(stored, register_bit(np.arange(scenario.K), bits), axis=1)
    return _Block(bits, decisions, chip_codes, codes, reps, misses)


def run_trials(scenario: Scenario, trials: int = 1000, master_seed: int = 0) -> MetricsReport:
    """Run the full pipeline for `trials` symbols and aggregate counts."""
    return _run_trials(scenario, trials, master_seed)[0]


# Bit value of each povm.DECISIONS code; 0 for the codes that decide no bit.
_DECIDED_BIT = np.array([d.bit_value or 0 for d in DECISIONS])


def _run_trials(scenario: Scenario, trials: int, master_seed: int,
                previous: _Prepared | None = None) -> tuple[MetricsReport, _Prepared]:
    """The report of `trials` symbols, and the _Prepared that they ran on."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    master_seed = check_seed(master_seed)
    prep = _Prepared(scenario, previous)

    bit_errors = dict.fromkeys(ALL_DETECTORS, 0)
    categories = np.zeros(len(DECISIONS), dtype=np.int64)
    correct = false_dec = miss_count = reps_total = 0
    for t0 in range(0, trials, BLOCK_TRIALS):
        count = min(BLOCK_TRIALS, trials - t0)
        try:
            block = _run_block(prep, master_seed, t0, count)
        except QmudError as exc:
            raise type(exc)(f"trials {t0}–{t0 + count - 1}: {exc}") from exc
        for kind in ALL_DETECTORS:
            bit_errors[kind] += int(np.count_nonzero(block.decisions[kind] != block.bits))
        reps_total += int(block.reps.sum())
        miss_count += int(block.coverage_miss.sum())
        covered = ~block.coverage_miss
        decided = _DECIDED_BIT[block.qmud]
        correct += int(np.count_nonzero(covered & (decided == block.bits)))
        false_dec += int(np.count_nonzero(covered & (decided == -block.bits)))
        categories += np.bincount(block.qmud[covered], minlength=len(DECISIONS))

    counts = dict(zip(DECISIONS, categories.tolist()))
    qmud_stats = QmudStats(correct, false_dec, counts[Decision.NO_MESSAGE],
                           counts[Decision.AMBIGUOUS], counts[Decision.INCONCLUSIVE],
                           miss_count, reps_total / (trials * scenario.K))
    report = MetricsReport(scenario_digest(scenario), scenario.K, trials, master_seed,
                           bit_errors, qmud_stats)
    return report, prep


def _apply_parameter(scenario: Scenario, name: str, value) -> Scenario:
    # Scenario and QuantizerSpec reject a fractional count.
    if name == "N_ch":
        return scenario.with_overrides(quantizer=replace(scenario.quantizer, n_ch=value))
    return scenario.with_overrides(**{name: value})


def sweep(scenario: Scenario, parameter: str, values, trials: int,
          master_seed: int) -> list[MetricsReport]:
    """One report per parameter value, in order, under common random numbers.

    Each point inherits R and the register bank from the previous point
    when the two agree on every register-defining field.
    """
    if parameter not in SWEEPABLE:
        raise UnknownParameter(f"cannot sweep {parameter!r}; choose one of {SWEEPABLE}")
    prep = None
    reports = []
    for value in values:
        modified = _apply_parameter(scenario, parameter, value)
        report, prep = _run_trials(modified, trials, master_seed, prep)
        reports.append(replace(report, param_name=parameter, param_value=float(value)))
    return reports
