"""Chip quantization and sparse hypothesis registers.

Every candidate received waveform is quantized chip by chip, by one
quantizer for arrays of any shape, and packed into a single basis index of
an N_Q-bit register (N_Q = N_ch * PG); ``pack_basis`` packs one waveform's
codes or an array of them.  A user's hypothesis register for
bit b is the set of indices reachable from that bit: own-signature delay
variants, every interferer bit pattern, and a bounded lattice of per-chip
noise offsets.  Registers carry implicit uniform amplitudes 1/sqrt(N_s),
so membership alone fixes the state.

One enumerator, ``_pattern_boxes``, turns bit patterns into indices: a
pattern's box is its noiseless waveform under every lattice offset,
quantized and packed in numpy.  ``enumerate_hypotheses`` builds one
register from the boxes of the patterns that fix the user's bit, as a
``SparseRegister``: a read-only sorted ``np.int64`` array (N_Q <= 24 bits,
so every index fits) with duplicates collapsed by one sort.
``build_bank`` builds all 2K registers of a scenario at once as a
``RegisterBank``: with delay 0, register (k, b) is the union of the boxes
of the full patterns whose bit k is b, so the 2^K boxes are enumerated and
sorted once, and each stored index carries a 2K-bit mask of the registers
that hold it.  One binary search of a received index into the bank gives
its membership in every register.  Registers depend only on the
signatures, energies, gains, quantizer, gamma and delays, so
``harness.sweep`` builds one bank for a ``noise_sigma`` or ``reps_max``
sweep and a new one at each point of a ``gamma`` or ``N_ch`` sweep.
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


def _check_budget(scenario: Scenario) -> None:
    if hypothesis_budget(scenario) > ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"{hypothesis_budget(scenario)} hypotheses exceed budget {ENUMERATION_BUDGET}")


def _pattern_boxes(scenario: Scenario, signatures: np.ndarray,
                   patterns: np.ndarray) -> np.ndarray:
    """Packed indices of each bit pattern's box, one row per row of ``patterns``.

    Row p holds the quantized index of the noiseless waveform of pattern p
    under ``signatures`` plus every combination of per-chip noise offsets
    eps[n] in {-gamma*step, ..., 0, ..., +gamma*step}, so it has
    (2*gamma + 1)**PG entries.  This is the one enumeration of waveforms
    into indices; ``enumerate_hypotheses`` and ``build_bank`` both use it.
    """
    spec = scenario.quantizer
    lattice = spec.step * np.arange(-scenario.gamma, scenario.gamma + 1, dtype=float)
    base = noiseless_waveforms(scenario.amplitude_vector(), signatures, patterns)
    # codes[p, n, j]: chip n of pattern p shifted by lattice offset j.
    codes = quantize_waveform(base[:, :, None] + lattice, spec)
    # Pack every combination of per-chip offsets, chip 0 most significant.
    index = np.zeros((len(patterns), 1), dtype=np.int64)
    for n in range(scenario.PG):
        index = (index[:, :, None] * spec.levels + codes[:, n, None, :]).reshape(
            len(patterns), -1)
    return index


def enumerate_hypotheses(scenario: Scenario, user: int, bit: int) -> SparseRegister:
    """Hypothesis register of `user` for transmitted `bit` (+1 or -1).

    Members are the quantized indices of every waveform

        sqrt(E_u) a_u b s_u^(d)  +  sum_{l != u} sqrt(E_l) a_l b_l s_l  +  eps

    over own-signature delays d, all interferer bit patterns, and per-chip
    noise offsets eps[n] in {-gamma*step, ..., 0, ..., +gamma*step}.
    Duplicate indices collapse.  ``build_bank`` builds all 2K registers of
    a scenario at once; this builds one.
    """
    if not 0 <= user < scenario.K:
        raise ValidationError(f"user index {user} outside [0, {scenario.K})")
    if bit not in (-1, 1):
        raise ValidationError(f"bit must be +1 or -1, got {bit}")
    _check_budget(scenario)

    # Row `user` is overwritten once per delay variant below.
    sig = scenario.signature_matrix().copy()
    # Every interferer bit pattern with the user's own bit fixed: (2**(K-1), K).
    patterns = np.array([p[:user] + (float(bit),) + p[user:]
                         for p in itertools.product((-1.0, 1.0), repeat=scenario.K - 1)])
    # One chunk per own-signature delay variant; the budget check above
    # bounds all chunks together to ENUMERATION_BUDGET indices.
    chunks = []
    for own in shift_variants(sig[user], scenario.delays):
        sig[user] = own
        chunks.append(_pattern_boxes(scenario, sig, patterns).ravel())
    return SparseRegister(np.concatenate(chunks), scenario.register_bits)


def register_bit(user, bit):
    """Mask bit of register (user, bit): 2*user for bit +1, 2*user + 1 for bit -1.

    Works elementwise on integer arrays of users and bits.
    """
    return 2 * user + (bit == -1)


@dataclass(frozen=True, eq=False)
class RegisterBank:
    """All 2K hypothesis registers of a scenario, stored as one sorted union.

    ``members`` is the read-only, strictly increasing ``np.int64`` array of
    every index that any register stores.  ``masks[i]`` has bit
    ``register_bit(k, b)`` set when register (k, b) stores ``members[i]``,
    and ``n_s[register_bit(k, b)]`` is that register's population N_s.
    """

    members: np.ndarray
    masks: np.ndarray
    n_s: tuple[int, ...]
    n_q: int

    def contains(self, v) -> np.ndarray:
        """Membership of every index of an integer array in every register, by one binary search.

        Returns bools of shape ``v.shape + (2K,)``; column ``register_bit(k, b)``
        is the membership in register (k, b).
        """
        pos = np.searchsorted(self.members, v)
        found = self.members.take(pos, mode="clip") == v
        masks = np.where(found, self.masks.take(pos, mode="clip"), 0)
        return (masks[..., None] >> np.arange(len(self.n_s))) & 1 == 1

    def register(self, user: int, bit: int) -> SparseRegister:
        """Register (user, bit) on its own."""
        stored = (self.masks >> register_bit(user, bit)) & 1 == 1
        return SparseRegister(self.members[stored], self.n_q)


def _collapse(boxes: np.ndarray, pattern_masks: np.ndarray, K: int):
    """(sorted unique indices, OR of the masks of the patterns whose box holds each).

    ``boxes`` is a fresh (2**K, entries) array from ``_pattern_boxes``,
    reused in place as the sort keys (index << K) | pattern id.  The budget
    caps K at 20, so a key (24 index bits plus K) and a mask (2K bits) each
    fit in an int64.
    """
    keys = boxes
    keys <<= K
    keys |= np.arange(len(keys))[:, None]
    keys = keys.reshape(-1)
    keys.sort()
    index = keys >> K
    starts = np.flatnonzero(np.concatenate(([True], index[1:] != index[:-1])))
    members = index[starts]
    del index  # free it before the mask gather allocates as much again
    keys &= (1 << K) - 1
    return members, np.bitwise_or.reduceat(pattern_masks[keys], starts)


def _merge(members, masks, extra, extra_masks):
    """Union of two (sorted unique indices, masks) pairs; a shared index ORs its masks."""
    union = np.union1d(members, extra)
    merged = np.zeros(union.size, dtype=np.int64)
    merged[np.searchsorted(union, members)] = masks
    merged[np.searchsorted(union, extra)] |= extra_masks
    return union, merged


def build_bank(scenario: Scenario) -> RegisterBank:
    """Every (user, bit) register of ``scenario`` from one pass over its pattern boxes.

    With delay 0 in ``delays``, register (k, b) holds the boxes of the full
    bit patterns whose bit k is b, so the 2**K boxes are enumerated once
    and each index takes the OR of its patterns' masks, each pattern
    setting one bit per user.  Every other own-signature delay variant of
    user k adds a box over all 2**K patterns that sets only bit (k, p_k).
    Members equal those of ``enumerate_hypotheses`` register by register.
    """
    _check_budget(scenario)
    K = scenario.K
    # Bit k of pattern id p is 1 when user k sends -1.
    flips = (np.arange(1 << K)[:, None] >> np.arange(K)) & 1
    patterns = 1.0 - 2.0 * flips
    # own_bits[p, k]: the mask bit pattern p sets for user k.
    own_bits = np.int64(1) << register_bit(np.arange(K), patterns)
    signatures = scenario.signature_matrix()

    # One (signatures, mask each pattern sets) per box.
    boxes = [(signatures, own_bits.sum(axis=1))] if 0 in scenario.delays else []
    for k in range(K):
        # With delay 0, the first variant is the unshifted signature: the
        # shared box above covers it.
        variants = shift_variants(signatures[k], scenario.delays)
        for own in variants[1:] if 0 in scenario.delays else variants:
            sig = signatures.copy()
            sig[k] = own
            boxes.append((sig, own_bits[:, k]))

    members = masks = None
    for sig, pattern_masks in boxes:
        part = _collapse(_pattern_boxes(scenario, sig, patterns), pattern_masks, K)
        members, masks = part if members is None else _merge(members, masks, *part)
    members.setflags(write=False)
    masks.setflags(write=False)
    n_s = tuple(int(np.count_nonzero(masks & (1 << j))) for j in range(2 * K))
    return RegisterBank(members, masks, n_s, scenario.register_bits)


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
