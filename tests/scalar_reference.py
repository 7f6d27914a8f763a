"""Scalar oracles for the vectorized code paths.

``reference_hypotheses`` is the per-pattern set-building loop that
``enumerate_hypotheses`` used before it was vectorized, with one change:
each pattern's noiseless waveform adds the users in ascending index order
(the own term at its own index), the order ``cdma.noiseless_waveforms``
uses for the transmitter.

``reference_trial`` and ``reference_report`` are the per-trial loop that
``harness`` ran before it ran trials in blocks: one ``SplitMix64`` per
trial, drawn through the per-symbol ``transmit``, detectors and
``detect_user``, against registers that ``reference_registers`` builds one
by one with ``enumerate_hypotheses``, not read from the harness's bank.
"""

import itertools

import numpy as np

from qmud import harness
from qmud.cdma import matched_filter, transmit
from qmud.config import scenario_digest
from qmud.harness import MetricsReport, QmudStats, TrialRecord
from qmud.povm import Decision, detect_user
from qmud.registers import enumerate_hypotheses, pack_basis, quantize_waveform, shift_variants
from qmud.rng import SplitMix64, derive_seed


def reference_hypotheses(scenario, user: int, bit: int) -> set[int]:
    spec = scenario.quantizer
    amp = scenario.amplitude_vector()
    sig = scenario.signature_matrix()
    offsets = spec.step * np.array(
        list(itertools.product(range(-scenario.gamma, scenario.gamma + 1),
                               repeat=scenario.PG)),
        dtype=float,
    )
    weights = np.array(
        [spec.levels ** (scenario.PG - 1 - n) for n in range(scenario.PG)],
        dtype=np.int64,
    )

    members: set[int] = set()
    for own in shift_variants(sig[user], scenario.delays):
        for pattern in itertools.product((-1.0, 1.0), repeat=scenario.K - 1):
            bits = pattern[:user] + (float(bit),) + pattern[user:]
            base = None
            for l, b_l in enumerate(bits):
                term = amp[l] * b_l * (np.array(own) if l == user else sig[l])
                base = term if base is None else base + term
            waves = base[None, :] + offsets
            codes = np.clip(
                np.floor((waves + spec.amplitude) / spec.step).astype(np.int64),
                0, spec.levels - 1)
            members.update((codes @ weights).tolist())
    return members


def reference_registers(scenario) -> dict:
    """Every (user, bit) register of the scenario, each enumerated on its own."""
    return {(k, b): enumerate_hypotheses(scenario, k, b)
            for k in range(scenario.K) for b in (1, -1)}


def reference_trial(prep, registers, trial_index: int, master_seed: int) -> TrialRecord:
    """One trial on its own SplitMix64 stream through the per-symbol functions.

    ``registers`` is ``reference_registers(prep.scenario)``, or None to skip
    the receiver.  This is the per-trial body the block engine replaced,
    kept as its oracle.
    """
    scenario = prep.scenario
    rng = SplitMix64(derive_seed(master_seed, trial_index))
    bits = tuple(1 if rng.uniform() < 0.5 else -1 for _ in range(scenario.K))
    received = transmit(scenario, bits, rng)
    soft = matched_filter(received, scenario)
    decisions = harness._run_detectors(soft, prep)

    qmud_decisions = None
    v = None
    misses = None
    reps = None
    if registers is not None:
        v = pack_basis(quantize_waveform(received, scenario.quantizer), scenario.quantizer)
        per_user = []
        for k in range(scenario.K):
            per_user.append(detect_user(registers[(k, 1)], registers[(k, -1)],
                                        v, scenario.reps_max, rng))
        qmud_decisions = tuple(per_user)
        misses = tuple(v not in registers[(k, bits[k])] for k in range(scenario.K))
        reps = tuple(d.reps_used for d in per_user)
    return TrialRecord(trial_index, bits, decisions, qmud_decisions, v, misses, reps)


def reference_report(scenario, kinds, include_qmud: bool, trials: int,
                     master_seed: int) -> MetricsReport:
    """run_trials as the per-trial loop over reference_trial."""
    prep = harness._Prepared(scenario, False, kinds)
    registers = reference_registers(scenario) if include_qmud else None
    bit_errors = {k: 0 for k in kinds}
    correct = false_dec = no_msg = ambiguous = inconclusive = miss_count = 0
    reps_total = 0

    for t in range(trials):
        rec = reference_trial(prep, registers, t, master_seed)
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
