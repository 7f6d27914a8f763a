"""Scalar oracles for the vectorized code paths.

``reference_hypotheses`` is the per-pattern set-building loop that
``enumerate_hypotheses`` used before it was vectorized, with one change:
each pattern's noiseless waveform adds the users in ascending index order
(the own term at its own index), the order ``cdma.noiseless_waveforms``
uses for the transmitter.  It shifts the own signature itself, so it shares
no delay code with ``qmud.registers``; equal shifts fall into one set.

``reference_trial``, ``reference_rows`` and ``reference_report`` are the
per-trial loop that ``harness`` ran before it ran trials in blocks: one
``SplitMix64`` per trial, drawn through the per-symbol ``transmit``,
detectors and ``detect_user``, against registers that
``reference_registers`` builds one by one with ``enumerate_hypotheses``,
not read from the harness's bank, and probed with ``pack_basis`` indices.
``detect_user`` measures with the operator algebra, ``measurement_block``
per open bank and round, so the engine's receiver is compared with the
operator model itself, decision, reps and draws alike.
A trial comes out as a one-row ``harness._Block``; ``stack_rows`` stacks
trials into one block, so the engine's arrays are compared with
``block_lists`` field by field, and ``reference_report`` aggregates the
rows of trials 0 .. T - 1 as ``run_trials`` does.
"""

import itertools
from dataclasses import fields

import numpy as np

from qmud import harness
from qmud.cdma import matched_filter, transmit
from qmud.config import scenario_digest
from qmud.detectors import (DetectorKind, decorrelate_detect, mmse_detect, optimal_detect,
                            sud_detect)
from qmud.harness import ALL_DETECTORS, DECISIONS, Decision, MetricsReport, QmudStats
from qmud.povm import detect_user
from qmud.registers import enumerate_hypotheses, pack_basis, quantize_waveform
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
    for d in scenario.delays:
        own = np.concatenate([np.zeros(d), sig[user][:scenario.PG - d]])
        for pattern in itertools.product((-1.0, 1.0), repeat=scenario.K - 1):
            bits = pattern[:user] + (float(bit),) + pattern[user:]
            base = None
            for l, b_l in enumerate(bits):
                term = amp[l] * b_l * (own if l == user else sig[l])
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


def reference_detectors(soft, prep) -> dict:
    """Each per-symbol detector on one soft vector, with its checks."""
    out = {}
    for kind in ALL_DETECTORS:
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


def reference_trial(prep, registers, trial_index: int, master_seed: int) -> harness._Block:
    """One trial on its own SplitMix64 stream through the per-symbol functions.

    ``registers`` is ``reference_registers(prep.scenario)``.  This is the
    per-trial body the block engine replaced, kept as its oracle; it returns
    the trial as a one-row block.
    """
    scenario = prep.scenario
    rng = SplitMix64(derive_seed(master_seed, trial_index))
    bits = tuple(1 if rng.uniform() < 0.5 else -1 for _ in range(scenario.K))
    received = transmit(scenario, bits, rng)
    soft = matched_filter(received, scenario)
    decisions = {kind: np.array([dec]) for kind, dec in reference_detectors(soft, prep).items()}
    chip_codes = quantize_waveform(received, scenario.quantizer)
    v = pack_basis(chip_codes, scenario.quantizer)
    per_user = [detect_user(registers[(k, 1)], registers[(k, -1)], v, scenario.reps_max, rng)
                for k in range(scenario.K)]
    codes = [DECISIONS.index(d.kind) for d in per_user]
    reps = [d.reps_used for d in per_user]
    misses = [v not in registers[(k, bits[k])] for k in range(scenario.K)]
    return harness._Block(np.array([bits]), decisions, chip_codes[None], np.array([codes]),
                          np.array([reps]), np.array([misses]))


def reference_rows(prep, registers, t0: int, count: int, master_seed: int) -> list:
    """Trials t0 .. t0 + count - 1, each through reference_trial, as one-row blocks."""
    return [reference_trial(prep, registers, t, master_seed) for t in range(t0, t0 + count)]


def stack_rows(rows: list) -> harness._Block:
    """One block of the one-row blocks ``rows``, in order."""
    stacked = {}
    for field in fields(harness._Block):
        column = [getattr(row, field.name) for row in rows]
        if field.name == "decisions":
            stacked["decisions"] = {kind: np.concatenate([d[kind] for d in column])
                                    for kind in column[0]}
        else:
            stacked[field.name] = np.concatenate(column)
    return harness._Block(**stacked)


def block_lists(block: harness._Block) -> dict:
    """Every array of a block as nested lists, for exact comparison."""
    out = {f.name: getattr(block, f.name) for f in fields(block)}
    out["decisions"] = {kind: dec.tolist() for kind, dec in block.decisions.items()}
    return {name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in out.items()}


def reference_report(scenario, rows: list, master_seed: int) -> MetricsReport:
    """run_trials as the per-trial loop, from ``reference_rows`` of trials 0 .. T - 1."""
    trials = len(rows)
    bit_errors = {k: 0 for k in ALL_DETECTORS}
    correct = false_dec = no_msg = ambiguous = inconclusive = miss_count = 0
    reps_total = 0

    for rec in rows:
        bits = rec.bits[0].tolist()
        for kind in ALL_DETECTORS:
            bit_errors[kind] += sum(d != b for d, b in zip(rec.decisions[kind][0].tolist(), bits))
        reps_total += int(rec.reps.sum())
        for k in range(scenario.K):
            if rec.coverage_miss[0, k]:
                miss_count += 1
                continue
            kind = DECISIONS[rec.qmud[0, k]]
            if kind in (Decision.BIT_ONE, Decision.BIT_ZERO):
                if kind.bit_value == bits[k]:
                    correct += 1
                else:
                    false_dec += 1
            elif kind is Decision.NO_MESSAGE:
                no_msg += 1
            elif kind is Decision.AMBIGUOUS:
                ambiguous += 1
            else:
                inconclusive += 1

    qmud_stats = QmudStats(correct, false_dec, no_msg, ambiguous, inconclusive,
                           miss_count, reps_total / (trials * scenario.K))
    return MetricsReport(scenario_digest(scenario), scenario.K, trials, master_seed,
                         bit_errors, qmud_stats)
