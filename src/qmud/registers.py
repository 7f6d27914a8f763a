"""Chip quantization and sparse hypothesis registers.

Every candidate received waveform is quantized chip by chip, by one
quantizer for arrays of any shape, and packed into a single basis index of
an N_Q-bit register (N_Q = N_ch * PG); ``pack_basis`` packs one waveform's
codes or an array of them.  A user's hypothesis register for
bit b is the set of indices reachable from that bit: own-signature delay
variants, every interferer bit pattern, and a bounded lattice of per-chip
noise offsets.  Registers carry implicit uniform amplitudes 1/sqrt(N_s),
so membership alone fixes the state.

A register stores its members as a read-only sorted ``np.int64`` array
(8 bytes per index; N_Q <= 24 bits, so every index fits), and membership is
one binary search.  ``enumerate_hypotheses`` computes every waveform of a
register in numpy and collapses duplicates with one sort.  Registers
depend only on the signatures, energies, gains, quantizer, gamma and
delays, so ``harness.sweep`` builds them once for a ``noise_sigma`` or
``reps_max`` sweep and anew at each point of a ``gamma`` or ``N_ch`` sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cdma import noiseless_waveforms
from .config import QuantizerSpec, Scenario
from .errors import (BudgetExceeded, CodeOutOfRange, DelayOutOfRange,
                     EmptyRegister, ValidationError)

# Cap on delays x interferer patterns x noise-lattice points per register.
ENUMERATION_BUDGET = 10**6


def quantize_waveform(chips, spec: QuantizerSpec) -> np.ndarray:
    """Uniform mid-rise chip codes with saturation at both rails.

    code = clip(floor((x + A) / step), 0, 2**n_ch - 1), elementwise over an
    array of any shape, returned as ``np.int64``.
    """
    x = np.asarray(chips, dtype=float)
    return np.floor((x + spec.amplitude) / spec.step).clip(0, spec.levels - 1).astype(np.int64)


def pack_basis(codes, spec: QuantizerSpec):
    """Pack chip codes (..., PG) into basis indices, chip 0 in the most significant bits.

    Returns an int for one waveform's codes and an ``np.int64`` array of
    shape (...) for an array of them.
    """
    codes = np.asarray(codes)
    bad = codes[(codes < 0) | (codes >= spec.levels)]
    if bad.size:
        raise CodeOutOfRange(f"chip code {bad[0]} does not fit in {spec.n_ch} bits")
    codes = codes.astype(np.int64, copy=False)
    # Each code has its own n_ch-bit field, so the sum is the bitwise or.
    index = (codes << spec.n_ch * np.arange(codes.shape[-1] - 1, -1, -1)).sum(axis=-1)
    return int(index) if index.ndim == 0 else index


def unpack_basis(index: int, spec: QuantizerSpec, pg: int) -> tuple[int, ...]:
    """Inverse of pack_basis; used by dump tooling and tests."""
    mask = spec.levels - 1
    return tuple((index >> (spec.n_ch * (pg - 1 - n))) & mask for n in range(pg))


def shift_variants(chips, delays) -> list[tuple[float, ...]]:
    """Right-shifted copies of a chip sequence, zero-filled, duplicates removed.

    Shifts emulate delayed-path arrivals of a signature within the single
    symbol window; there is no preceding chip to wrap around.
    """
    chips = tuple(float(x) for x in chips)
    pg = len(chips)
    variants: list[tuple[float, ...]] = []
    for d in sorted(set(int(d) for d in delays)):
        if not 0 <= d < pg:
            raise DelayOutOfRange(f"delay {d} outside [0, {pg})")
        shifted = (0.0,) * d + chips[: pg - d]
        if shifted not in variants:
            variants.append(shifted)
    return variants


@dataclass(frozen=True, eq=False)
class SparseRegister:
    """Uniform-amplitude superposition stored as its sorted basis indices.

    Built from any iterable of ints or an integer ndarray; ``members`` is
    then a read-only, strictly increasing ``np.int64`` array, duplicates
    collapsed.  ``v in reg`` is a binary search.
    """

    members: np.ndarray
    n_q: int

    def __post_init__(self):
        values = self.members
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
            try:
                values = np.fromiter((int(v) for v in values), dtype=np.int64)
            except OverflowError as exc:
                raise ValidationError(
                    f"basis index outside [0, 2**{self.n_q}): {exc}") from exc
        values = np.sort(values, axis=None)
        if values.size and (values[0] < 0 or values[-1] >= 1 << self.n_q):
            bad = values[0] if values[0] < 0 else values[-1]
            raise ValidationError(f"basis index {bad} outside [0, 2**{self.n_q})")
        values = values.astype(np.int64, copy=False)
        if values.size:
            values = values[np.concatenate(([True], values[1:] != values[:-1]))]
        values.setflags(write=False)
        object.__setattr__(self, "members", values)

    def __contains__(self, v) -> bool:
        return bool(self.contains(v))

    def contains(self, v) -> np.ndarray:
        """Membership of every index of an integer array, elementwise (binary search)."""
        if self.members.size == 0:
            return np.zeros(np.shape(v), dtype=bool)
        return self.members.take(np.searchsorted(self.members, v), mode="clip") == v

    def __eq__(self, other):
        if not isinstance(other, SparseRegister):
            return NotImplemented
        return self.n_q == other.n_q and np.array_equal(self.members, other.members)

    def __hash__(self):
        return hash((self.n_q, self.members.tobytes()))

    @property
    def n_s(self) -> int:
        return self.members.size

    def sorted_members(self) -> list[int]:
        return self.members.tolist()


@dataclass(frozen=True)
class QubitState:
    """Two-level reduction of a register relative to one basis index."""

    c0: float
    c1: float

    def __post_init__(self):
        if abs(self.c0 * self.c0 + self.c1 * self.c1 - 1.0) > 1e-12:
            raise ValidationError(f"qubit amplitudes not normalized: ({self.c0}, {self.c1})")

    @classmethod
    def absent(cls) -> "QubitState":
        return cls(1.0, 0.0)

    @classmethod
    def present(cls, n_s: int) -> "QubitState":
        return cls(*present_qubit_amplitudes(n_s))


@lru_cache(maxsize=None)
def present_qubit_amplitudes(n_s: int) -> tuple[float, float]:
    """(c0, c1) of the reduced qubit when the probed index is stored.

    Shared by the register reduction and the measurement operators so both
    sides use bit-identical floats; the unambiguous-discrimination zero
    probabilities then cancel exactly.
    """
    if n_s < 1:
        raise EmptyRegister("population must be >= 1")
    return math.sqrt((n_s - 1.0) / n_s), math.sqrt(1.0 / n_s)


def reduce_to_qubit(reg: SparseRegister, v: int) -> QubitState:
    """Collapse the register to the two-level state seen by the measurement.

    The component along |v> carries amplitude 1/sqrt(N_s) if stored, else
    the state is exactly the reference state (1, 0).
    """
    if reg.n_s == 0:
        raise EmptyRegister("register holds no states")
    if v in reg:
        return QubitState.present(reg.n_s)
    return QubitState.absent()


def hypothesis_budget(scenario: Scenario) -> int:
    """Number of raw waveform hypotheses per register, before dedup."""
    lattice = (2 * scenario.gamma + 1) ** scenario.PG
    return lattice * len(scenario.delays) * 2 ** (scenario.K - 1)


def enumerate_hypotheses(scenario: Scenario, user: int, bit: int) -> SparseRegister:
    """Hypothesis register of `user` for transmitted `bit` (+1 or -1).

    Members are the quantized indices of every waveform

        sqrt(E_u) a_u b s_u^(d)  +  sum_{l != u} sqrt(E_l) a_l b_l s_l  +  eps

    over own-signature delays d, all interferer bit patterns, and per-chip
    noise offsets eps[n] in {-gamma*step, ..., 0, ..., +gamma*step}.
    Duplicate indices collapse.
    """
    if not 0 <= user < scenario.K:
        raise ValidationError(f"user index {user} outside [0, {scenario.K})")
    if bit not in (-1, 1):
        raise ValidationError(f"bit must be +1 or -1, got {bit}")
    if hypothesis_budget(scenario) > ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"{hypothesis_budget(scenario)} hypotheses exceed budget {ENUMERATION_BUDGET}")

    spec = scenario.quantizer
    amp = scenario.amplitude_vector()
    # Row `user` is overwritten once per delay variant below.
    sig = scenario.signature_matrix().copy()
    # Every interferer bit pattern with the user's own bit fixed: (2**(K-1), K).
    patterns = np.array([p[:user] + (float(bit),) + p[user:]
                         for p in itertools.product((-1.0, 1.0), repeat=scenario.K - 1)])
    lattice = spec.step * np.arange(-scenario.gamma, scenario.gamma + 1, dtype=float)

    # One chunk per own-signature delay variant; the budget check above
    # bounds all chunks together to ENUMERATION_BUDGET indices.
    chunks = []
    for own in shift_variants(sig[user], scenario.delays):
        sig[user] = own
        base = noiseless_waveforms(amp, sig, patterns)
        # codes[p, n, j]: chip n of pattern p shifted by lattice offset j.
        codes = quantize_waveform(base[:, :, None] + lattice, spec)
        # Pack every combination of per-chip offsets, chip 0 most significant.
        index = np.zeros((len(patterns), 1), dtype=np.int64)
        for n in range(scenario.PG):
            index = (index[:, :, None] * spec.levels + codes[:, n, None, :]).reshape(
                len(patterns), -1)
        chunks.append(index.ravel())
    return SparseRegister(np.concatenate(chunks), scenario.register_bits)


def dump_register(reg: SparseRegister) -> str:
    """Text dump: header line, then one decimal basis index per line, sorted."""
    lines = [f"N_Q={reg.n_q} N_s={reg.n_s}"]
    lines.extend(str(v) for v in reg.sorted_members())
    return "\n".join(lines) + "\n"


def load_register(text: str) -> SparseRegister:
    """Parse a dump produced by dump_register."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("N_Q="):
        raise ValidationError("register dump must start with an 'N_Q=<n> N_s=<m>' header")
    try:
        fields = dict(part.split("=") for part in lines[0].split())
        n_q = int(fields["N_Q"])
        n_s = int(fields["N_s"])
        members = frozenset(int(ln) for ln in lines[1:])
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"malformed register dump: {exc}") from exc
    if len(members) != n_s:
        raise ValidationError(f"header says N_s={n_s} but dump lists {len(members)} indices")
    return SparseRegister(members, n_q)
