"""Library-level measurements: set-up time, per-layer microbenchmarks, the
noiseless coverage check, and an independent check of each layer's outputs.

Imported only after ``run.py`` has put the checkout's ``src`` first on
``sys.path``.  Inputs come from the benchmark's seed through numpy's
``default_rng`` or the benchmark's own SplitMix64, never from the package's
generators, and every output timed here is checked by a recomputation in
this file.
"""

from __future__ import annotations

import gc
import itertools
import math
import statistics
import sys
import time

import numpy as np

from qmud.cdma import correlation_matrix, matched_filter, transmit
from qmud.cli import parse_config
from qmud.detectors import decorrelate_detect, mmse_detect, optimal_detect, sud_detect
from qmud.povm import Decision, detect_user
from qmud.registers import SparseRegister, enumerate_hypotheses, pack_basis, quantize_waveform
from qmud.rng import SplitMix64, derive_seed

from checks import SPLITMIX64_SEED0, Z, RefSplitMix64, reps_moments, ref_derive_seed

REPEATS = 5


def load_scenario(path):
    with open(path) as fh:
        return parse_config(fh.read())


def build_state(scenario):
    """Per-run state of one scenario: R and every (user, bit) register."""
    R = correlation_matrix(scenario)
    registers = {(k, b): enumerate_hypotheses(scenario, k, b)
                 for k in range(scenario.K) for b in (1, -1)}
    return R, registers


def time_setup(scenario, min_reps: int = 3, min_seconds: float = 1.0) -> list[float]:
    """Wall time of build_state, repeated at least min_reps times and min_seconds."""
    times = []
    started = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - started < min_seconds:
        t0 = time.perf_counter()
        state = build_state(scenario)
        times.append(time.perf_counter() - t0)
        del state
    return times


def noiseless_membership(scenario, registers):
    """Where each noiseless (bit pattern, user) waveform lands.

    Returns {(pattern, k): (in true-bit register, in other-bit register)}
    from the package's own transmitter, quantizer and registers.  With
    gamma = 0 every pair must be in its true-bit register; a pair that is
    not is the transmit/register disagreement.
    """
    spec = scenario.quantizer
    clean = scenario.with_overrides(noise_sigma=0.0)
    table = {}
    for pattern in itertools.product((-1, 1), repeat=scenario.K):
        received = transmit(clean, pattern, SplitMix64(0))
        v = pack_basis(quantize_waveform(received, spec), spec)
        for k in range(scenario.K):
            table[(pattern, k)] = (v in registers[(k, pattern[k])].members,
                                   v in registers[(k, -pattern[k])].members)
    return table


def deep_size(obj) -> int:
    """Bytes held by obj and everything it references, each object once."""
    seen = set()
    todo = [obj]
    total = 0
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, type):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        todo.extend(gc.get_referents(o))
    return total


def _us_per_call(fn, inputs) -> tuple[float, list]:
    """Median microseconds per call of fn over inputs across REPEATS passes."""
    times = []
    out = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = [fn(x) for x in inputs]
        times.append((time.perf_counter() - t0) / len(inputs))
    return statistics.median(times) * 1e6, out


def _sign_ok(got, value, tol) -> bool:
    return got == (1 if value >= 0 else -1) or abs(value) <= tol


def microbenchmarks(scenario, R, registers, seed: int, n_vectors: int = 1000):
    """Time each layer's public functions on seeded inputs; check each output.

    Returns (metrics, problems).
    """
    problems: list[str] = []
    metrics: dict[str, float] = {}
    gen = np.random.default_rng(seed)
    K, PG = scenario.K, scenario.PG
    spec = scenario.quantizer

    # rng: the published vectors, then the package against the reference.
    lib = SplitMix64(0)
    got = [lib.next_u64() for _ in SPLITMIX64_SEED0]
    if tuple(got) != SPLITMIX64_SEED0:
        problems.append(f"rng: SplitMix64(0) gives {[hex(g) for g in got]}")
    rng_seed = int(gen.integers(0, 2**63))
    n_draws = 50_000
    for name in ("uniform", "normal"):
        draw = getattr(SplitMix64(rng_seed), name)
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for _ in range(n_draws):
                draw()
            times.append((time.perf_counter() - t0) / n_draws)
        metrics[f"rng.{name}_ns"] = statistics.median(times) * 1e9
        lib, ref = SplitMix64(rng_seed), RefSplitMix64(rng_seed)
        if [getattr(lib, name)() for _ in range(1000)] != [getattr(ref, name)() for _ in range(1000)]:
            problems.append(f"rng.{name}: differs from the reference SplitMix64 draw contract")
    if any(derive_seed(rng_seed, i) != ref_derive_seed(rng_seed, i) for i in range(4)):
        problems.append("rng.derive_seed: differs from the reference")

    # cdma: transmit consumes exactly PG normals and adds sigma * z to the
    # noiseless superposition; the matched filter correlates with each signature.
    amp = np.sqrt(np.array(scenario.energies)) * np.array(scenario.gains)
    sig = np.array(scenario.signatures)
    bit_rows = [tuple(int(b) for b in row) for row in gen.choice((-1, 1), size=(n_vectors, K))]
    stream_seeds = [int(s) for s in gen.integers(0, 2**63, size=n_vectors)]
    jobs = list(zip(bit_rows, stream_seeds))
    metrics["cdma.transmit_us"], received = _us_per_call(
        lambda job: transmit(scenario, job[0], SplitMix64(job[1])), jobs)
    for (bits, s), r in zip(jobs[:200], received):
        lib, ref = SplitMix64(s), RefSplitMix64(s)
        transmit(scenario, bits, lib)
        noise = np.array([ref.normal() for _ in range(PG)])
        clean = sum(amp[k] * bits[k] * sig[k] for k in range(K))
        if np.max(np.abs(r - (clean + scenario.noise_sigma * noise))) > 1e-12:
            problems.append("cdma.transmit: waveform differs from sum_k amp_k b_k s_k + sigma z")
            break
        if lib.uniform() != ref.uniform():
            problems.append(f"cdma.transmit: did not consume exactly {PG} normals")
            break
    metrics["cdma.matched_filter_us"], softs = _us_per_call(
        lambda r: matched_filter(r, scenario), received)
    for r, soft in zip(received, softs):
        ref = [amp[k] * sum(sig[k, n] * r[n] for n in range(PG)) for k in range(K)]
        if np.max(np.abs(soft - ref)) > 1e-12:
            problems.append("cdma.matched_filter: outputs differ from amp_k <r, s_k>")
            break

    # detectors: each against its own closed form; the optimal detector
    # against a brute-force argmin of b'Rb - 2b'y, near-ties either way.
    variance = scenario.noise_sigma ** 2
    inv_R = np.linalg.inv(R)
    inv_M = np.linalg.inv(R + variance * np.eye(K))
    candidates = np.array(list(itertools.product((-1.0, 1.0), repeat=K)))
    quad = np.einsum("ck,kl,cl->c", candidates, R, candidates)
    kinds = {
        "sud": (lambda y: sud_detect(y), lambda y: y),
        "decorrelator": (lambda y: decorrelate_detect(y, R), lambda y: inv_R @ y),
        "mmse": (lambda y: mmse_detect(y, R, variance), lambda y: inv_M @ y),
    }
    for name, (fn, linear) in kinds.items():
        metrics[f"detectors.{name}_us"], decisions = _us_per_call(fn, softs)
        for y, dec in zip(softs, decisions):
            z = linear(y)
            if not all(_sign_ok(int(dec[k]), z[k], 1e-9) for k in range(K)):
                problems.append(f"detectors.{name}: {list(dec)} is not the sign of {list(z)}")
                break
    metrics["detectors.optimal_us"], decisions = _us_per_call(
        lambda y: optimal_detect(y, R), softs)
    for y, dec in zip(softs, decisions):
        b = np.asarray(dec, dtype=float)
        if b @ R @ b - 2.0 * b @ y > (quad - 2.0 * candidates @ y).min() + 1e-9:
            problems.append(f"detectors.optimal: {list(dec)} is not an argmin for y={list(y)}")
            break

    # registers: quantize + pack one waveform, against the cell inequality
    # -A + c*step <= x < -A + (c+1)*step (rails saturate) and positional packing.
    def quantize_pack(r):
        return pack_basis(quantize_waveform(r, spec), spec)

    metrics["registers.quantize_pack_us"], indices = _us_per_call(quantize_pack, received)
    A, step, levels = spec.amplitude, spec.step, spec.levels
    for r, v in zip(received, indices):
        codes = [(v >> (spec.n_ch * (PG - 1 - n))) & (levels - 1) for n in range(PG)]
        if v >> (spec.n_ch * PG):
            problems.append(f"registers.pack_basis: index {v} exceeds N_Q bits")
            break
        bad = [n for n, (x, c) in enumerate(zip(r, codes))
               if not ((x < -A and c == 0) or (x >= A and c == levels - 1)
                       or -A + c * step - 1e-12 <= x < -A + (c + 1) * step + 1e-12)]
        if bad:
            problems.append(f"registers.quantize: chip {bad[0]} = {r[bad[0]]} outside cell {codes[bad[0]]}")
            break

    # povm: detect_user on the scenario's own registers; any conclusive
    # decision must agree with register membership (soundness).
    streams = [int(s) for s in gen.integers(0, 2**63, size=n_vectors)]
    users = [int(k) for k in gen.integers(0, K, size=n_vectors)]
    calls = list(zip(indices, users, streams))

    def detect(call):
        v, k, s = call
        return detect_user(registers[(k, 1)], registers[(k, -1)], v, scenario.reps_max,
                           SplitMix64(s))

    metrics["povm.detect_user_us"], decisions = _us_per_call(detect, calls)
    for (v, k, _), dec in zip(calls, decisions):
        expected = _membership_decision(v in registers[(k, 1)].members,
                                        v in registers[(k, -1)].members)
        if dec.kind not in (expected, Decision.INCONCLUSIVE):
            problems.append(f"povm.detect_user: {dec.kind} for membership decision {expected}")
            break

    largest = max(registers.values(), key=lambda reg: reg.n_s)
    metrics["registers.bytes_per_member"] = deep_size(largest) / largest.n_s
    problems += detect_user_closed_form(seed)
    return metrics, problems


def _membership_decision(in1: bool, in0: bool):
    return {(True, False): Decision.BIT_ONE, (False, True): Decision.BIT_ZERO,
            (True, True): Decision.AMBIGUOUS, (False, False): Decision.NO_MESSAGE}[(in1, in0)]


def detect_user_closed_form(seed: int, calls: int = 3000, reps_max: int = 3) -> list[str]:
    """detect_user on hand-built registers against its closed forms.

    Each bank concludes a block with probability 1/N_s whether the index is
    stored or not, so both banks conclude within R blocks with probability
    q1*q0, q = 1-(1-1/N_s)^R, and then decide by membership alone.
    """
    problems = []
    gen = np.random.default_rng(seed + 1)
    n1, n0, v = 2, 3, 5

    def hand_built(n_s: int, holds_v: bool) -> SparseRegister:
        others = set(range(8, 8 + n_s - holds_v))
        return SparseRegister(frozenset(others | {v} if holds_v else others), 4)

    q1 = 1.0 - (1.0 - 1.0 / n1) ** reps_max
    q0 = 1.0 - (1.0 - 1.0 / n0) ** reps_max
    for in1, in0 in itertools.product((True, False), repeat=2):
        reg1, reg0 = hand_built(n1, in1), hand_built(n0, in0)
        expected = _membership_decision(in1, in0)
        decided = reps = 0
        for s in gen.integers(0, 2**63, size=calls):
            dec = detect_user(reg1, reg0, v, reps_max, SplitMix64(int(s)))
            reps += dec.reps_used
            if dec.kind is expected:
                decided += 1
            elif dec.kind is not Decision.INCONCLUSIVE:
                problems.append(f"povm.detect_user: {dec.kind} with membership ({in1}, {in0})")
                break
        p = q1 * q0
        limit = Z * math.sqrt(calls * p * (1 - p))
        if abs(decided - calls * p) > limit:
            problems.append(f"povm.detect_user: {decided} of {calls} decided with membership "
                            f"({in1}, {in0}); closed form {calls * p:.1f} +- {limit:.1f}")
        mean, var = reps_moments(1.0 / n1, 1.0 / n0, reps_max)
        limit = Z * math.sqrt(calls * var)
        if abs(reps - calls * mean) > limit:
            problems.append(f"povm.detect_user: {reps} blocks over {calls} calls; "
                            f"closed form {calls * mean:.1f} +- {limit:.1f}")
    return problems
