"""Correctness checks on the results CSV that ``qmud run`` and ``qmud sweep`` write.

Every check is a closed form, an independent recomputation or a property of
the method; none compares against a stored copy of earlier output.  The
module needs only numpy and the scenario JSON, so it judges the program
from outside.  Each check function returns a list of problem strings; an
empty list means the CSV passed.

Bounds are two-sided at ``Z`` standard deviations (one-sided for tail
bounds), wide enough to hold on any seed: a false alarm has a chance of
about 1e-6 per check.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

RESULTS_HEADER = ("scenario_id,detector,param_name,param_value,trials,bit_errors,ber,"
                  "correct,no_message,ambiguous,inconclusive,coverage_miss,mean_reps,seed")
CLASSICAL = ("sud", "decorrelator", "mmse", "optimal")
DETECTORS = CLASSICAL + ("qmud",)
Z = 5.0

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Published SplitMix64 outputs for seed 0 (Steele, Lea & Flood, OOPSLA 2014).
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
                    0xF88BB8A8724C81EC, 0x1B39896A51A8749B)


class RefSplitMix64:
    """The benchmark's own SplitMix64 and the package's documented draw contract."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self.spare = None

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        if self.spare is not None:
            z, self.spare = self.spare, None
            return z
        while True:
            u = 2.0 * self.uniform() - 1.0
            v = 2.0 * self.uniform() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                f = math.sqrt(-2.0 * math.log(s) / s)
                self.spare = v * f
                return u * f


def ref_derive_seed(master: int, index: int) -> int:
    """(index + 1)-th output of the SplitMix64 stream seeded with master."""
    rng = RefSplitMix64((master + _GAMMA * index) & _MASK64)
    return rng.next_u64()


def trial_bits(master: int, trial: int, K: int) -> tuple[int, ...]:
    """Bits of one Monte Carlo trial: the first K uniforms of its stream."""
    rng = RefSplitMix64(ref_derive_seed(master, trial))
    return tuple(1 if rng.uniform() < 0.5 else -1 for _ in range(K))


def q_func(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0, 1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass(frozen=True)
class Model:
    """What the checks need of a scenario, computed from its JSON alone."""

    K: int
    PG: int
    R: np.ndarray
    sigma: float
    step: float
    gamma: int
    reps_max: int

    @classmethod
    def from_json(cls, text: str) -> "Model":
        doc = json.loads(text)
        sig = np.array(doc["signatures"], dtype=float)
        sig /= np.linalg.norm(sig, axis=1, keepdims=True)
        amp = np.sqrt(np.array(doc["energies"], dtype=float)) * np.array(doc["gains"], dtype=float)
        R = np.outer(amp, amp) * (sig @ sig.T)
        amplitude = doc.get("amplitude_A")
        if amplitude is None:
            amplitude = 1.5 * float(np.max(np.abs(amp) @ np.abs(sig)))
        return cls(K=int(doc["K"]), PG=int(doc["PG"]), R=R,
                   sigma=float(doc["noise_sigma"]),
                   step=2.0 * float(amplitude) / 2 ** int(doc["N_ch"]),
                   gamma=int(doc["gamma"]), reps_max=int(doc["reps_max"]))

    def at(self, param: str | None, value) -> "Model":
        if param is None:
            return self
        if param == "noise_sigma":
            return replace(self, sigma=float(value))
        if param == "reps_max":
            return replace(self, reps_max=int(value))
        raise ValueError(f"no check model for swept parameter {param!r}")

    @property
    def orthogonal(self) -> bool:
        off = self.R - np.diag(np.diag(self.R))
        return bool(np.all(np.abs(off) <= 1e-12 * np.max(np.abs(self.R))))

    def sud_error_probs(self) -> list[float]:
        """Per-user SUD bit error probability, averaged over interferer bits.

        b~_k = R_kk b_k + sum_l R_kl b_l + n_k with n_k ~ N(0, sigma^2 R_kk).
        """
        probs = []
        for k in range(self.K):
            others = [l for l in range(self.K) if l != k]
            total = 0.0
            for pattern in itertools.product((-1.0, 1.0), repeat=len(others)):
                mean = self.R[k, k] + sum(self.R[k, l] * b for l, b in zip(others, pattern))
                total += _error_prob(mean, self.sigma * math.sqrt(self.R[k, k]))
            probs.append(total / 2 ** len(others))
        return probs

    def decorrelator_error_probs(self) -> list[float]:
        """Q(1 / (sigma sqrt((R^-1)_kk))): R^-1 b~ = b + R^-1 n, cov sigma^2 R^-1."""
        inv = np.linalg.inv(self.R)
        return [_error_prob(1.0, self.sigma * math.sqrt(inv[k, k])) for k in range(self.K)]


def _error_prob(mean: float, sd: float) -> float:
    if sd == 0.0:
        return 0.0 if mean > 0 else 1.0
    return q_func(mean / sd)


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    """Split the CSV into sweep points, each a {detector: row} dict, in order."""
    lines = text.splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        return [f"header differs from the frozen schema: {lines[:1]}"], []
    keys = RESULTS_HEADER.split(",")
    points: list[dict] = []
    for line in lines[1:]:
        row = dict(zip(keys, line.split(",")))
        if not points or row["detector"] in points[-1]:
            points.append({})
        points[-1][row["detector"]] = row
    return [], points


def _within(label: str, observed: float, mean: float, var: float, slack: float = 0.0):
    limit = Z * math.sqrt(max(var, 0.0)) + slack + 1e-9
    if abs(observed - mean) > limit:
        return [f"{label}: observed {observed}, expected {mean:.6g} +- {limit:.3g}"]
    return []


def _at_most(label: str, observed: float, mean: float, var: float):
    limit = mean + Z * math.sqrt(max(var, 0.0)) + 1e-9
    if observed > limit:
        return [f"{label}: observed {observed}, tail bound {limit:.3g}"]
    return []


def _error_count_check(label, errors, probs, trials, K):
    # Users of one trial share the noise vector, so their errors correlate;
    # Var(sum_k X_k) <= K * sum_k Var(X_k) holds whatever the correlation.
    mean = trials * sum(probs)
    var = K * trials * sum(p * (1.0 - p) for p in probs)
    return _within(label, errors, mean, var)


def check_results(text: str, model: Model, *, trials: int, seed: int, param: str | None,
                  values, noiseless=None) -> list[str]:
    """All checks on one CSV; returns the problems found.

    ``noiseless`` (for sigma = 0 scenarios) maps each (bit pattern, user) to
    (index in true-bit register, index in other-bit register) and holds the
    register sizes; with it the receiver's counts are checked against their
    exact conditional expectations over the trials' actual bits.
    """
    problems, points = parse_csv(text)
    if problems:
        return problems
    expected_values = list(values) if param else [None]
    if len(points) != len(expected_values):
        return [f"expected {len(expected_values)} sweep points, got {len(points)}"]
    bits = None
    for value, rows in zip(expected_values, points):
        where = f"{param}={value}" if param else "run"
        if tuple(rows) != DETECTORS:
            problems.append(f"{where}: detector rows {tuple(rows)} != {DETECTORS}")
            continue
        m = model.at(param, value)
        slots = trials * m.K
        for det, row in rows.items():
            if int(row["trials"]) != trials or int(row["seed"]) != seed:
                problems.append(f"{where} {det}: trials/seed columns {row['trials']}/{row['seed']}")
            if param and (row["param_name"] != param or float(row["param_value"]) != value):
                problems.append(f"{where} {det}: param columns {row['param_name']}={row['param_value']}")
        for det in CLASSICAL:
            row = rows[det]
            if int(row["bit_errors"]) + int(row["correct"]) != slots:
                problems.append(f"{where} {det}: bit_errors + correct != trials*K")
        problems += _error_count_check(f"{where} sud errors", int(rows["sud"]["bit_errors"]),
                                       m.sud_error_probs(), trials, m.K)
        problems += _error_count_check(f"{where} decorrelator errors",
                                       int(rows["decorrelator"]["bit_errors"]),
                                       m.decorrelator_error_probs(), trials, m.K)
        if m.orthogonal:
            # With a diagonal R every detector reduces to the sign of b~.
            for det in ("mmse", "optimal"):
                problems += _error_count_check(f"{where} {det} errors",
                                               int(rows[det]["bit_errors"]),
                                               m.sud_error_probs(), trials, m.K)

        q = {c: int(rows["qmud"][c]) for c in
             ("bit_errors", "correct", "no_message", "ambiguous", "inconclusive", "coverage_miss")}
        if q["bit_errors"] != 0:
            problems.append(f"{where} qmud: {q['bit_errors']} false decisions (soundness)")
        if sum(q.values()) != slots:
            problems.append(f"{where} qmud: categories sum to {sum(q.values())}, not trials*K={slots}")
        if m.sigma > 0:
            # A chip's noise below gamma steps keeps its cell inside the
            # true-bit register's lattice, so a miss needs some |sigma z_n| >=
            # gamma*step: P(miss) <= PG * 2Q(gamma*step/sigma) per slot.
            p = 1.0 if m.gamma == 0 else min(1.0, m.PG * 2.0 * q_func(m.gamma * m.step / m.sigma))
            problems += _at_most(f"{where} qmud coverage_miss", q["coverage_miss"],
                                 slots * p, m.K * slots * p * (1.0 - p))
        elif noiseless is not None:
            if bits is None:
                bits = [trial_bits(seed, t, m.K) for t in range(trials)]
            problems += _check_noiseless_receiver(where, q, float(rows["qmud"]["mean_reps"]),
                                                  bits, m, noiseless)
    return problems


def reps_moments(p1: float, p0: float, R: int) -> tuple[float, float]:
    """Mean and variance of min(max(G1, G0), R) for geometric block counts."""
    mean = second = 0.0
    for m in range(R):
        tail = 1.0 - (1.0 - (1.0 - p1) ** m) * (1.0 - (1.0 - p0) ** m)
        mean += tail
        second += (2 * m + 1) * tail
    return mean, second - mean * mean


def _check_noiseless_receiver(where, q, mean_reps, bits, m: Model, noiseless) -> list[str]:
    """Exact conditional expectations of the receiver's counts given the bits.

    A bank concludes in each block with probability 1/N_s whether or not the
    index is stored, so within R blocks it concludes with q = 1-(1-1/N_s)^R.
    With the index in the true-bit register only, a slot is correct when both
    banks conclude; in both registers it is ambiguous; in the true-bit
    register never, it is a coverage miss.
    """
    membership, sizes = noiseless
    miss = 0
    correct_mean = correct_var = amb_mean = amb_var = reps_mean = reps_var = 0.0
    for pattern in bits:
        for k in range(m.K):
            in_true, in_other = membership[(pattern, k)]
            n1, n0 = sizes[(k, 1)], sizes[(k, -1)]
            q1 = 1.0 - (1.0 - 1.0 / n1) ** m.reps_max
            q0 = 1.0 - (1.0 - 1.0 / n0) ** m.reps_max
            mu, var = reps_moments(1.0 / n1, 1.0 / n0, m.reps_max)
            reps_mean += mu
            reps_var += var
            if not in_true:
                miss += 1
            elif in_other:
                amb_mean += q1 * q0
                amb_var += q1 * q0 * (1.0 - q1 * q0)
            else:
                correct_mean += q1 * q0
                correct_var += q1 * q0 * (1.0 - q1 * q0)
    slots = len(bits) * m.K
    problems = []
    if q["coverage_miss"] != miss:
        problems.append(f"{where} qmud coverage_miss: observed {q['coverage_miss']}, "
                        f"the trials' bit patterns give exactly {miss}")
    if q["no_message"] != 0:
        problems.append(f"{where} qmud no_message: {q['no_message']} outside coverage misses")
    problems += _within(f"{where} qmud correct", q["correct"], correct_mean, correct_var)
    problems += _within(f"{where} qmud ambiguous", q["ambiguous"], amb_mean, amb_var)
    # mean_reps is printed to 6 significant digits.
    problems += _within(f"{where} qmud mean_reps * slots", mean_reps * slots, reps_mean,
                        reps_var, slack=slots * abs(mean_reps) * 1e-5)
    return problems
