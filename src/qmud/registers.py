"""Chip quantization and sparse hypothesis registers.

Every candidate received waveform is quantized chip by chip, by one
quantizer for arrays of any shape, into PG chip codes: the digits of one
basis index of an N_Q-bit register (N_Q = N_ch * PG), chip 0 most
significant, which ``pack_basis`` packs.  A user's hypothesis register for
bit b is the set of indices reachable from that bit: own-signature delay
variants, every interferer bit pattern, and a bounded lattice of per-chip
noise offsets.  Registers carry implicit uniform amplitudes 1/sqrt(N_s),
so membership alone fixes the state.

One quantizer of boxes, ``_chip_codes``, turns bit patterns into chip
codes: a pattern's box is its noiseless waveform under every lattice
offset, and ``_pack_offsets`` packs the box into sorted indices.
``enumerate_hypotheses`` builds one register from the boxes of the
patterns that fix the user's bit, as a ``SparseRegister``: a read-only
sorted ``np.int64`` array with duplicates collapsed by one sort.

``build_bank`` builds all 2K registers of a scenario at once as a
``RegisterBank``, which stores no index and is probed with chip codes.
Its table stacks every box's patterns as rows, each with a 2K-bit mask
of the registers it belongs to: with delay 0, register (k, b) is the
union of the boxes of the full patterns whose bit k is b, so the 2^K
boxes are quantized once, and each other own-signature delay variant
adds a box per pattern that sets only its own user's bit.  A box is a
product of per-chip code sets, so a waveform's codes lie in it when each
lies in the box's set for its chip.  The bank keeps, for every (chip,
code), the bitset of the rows that allow it, and for every register the
bitset of its rows: a received waveform's PG chip codes pick PG bitsets,
their AND holds the rows that reach them, and the waveform is in every
register that holds one of those rows.  On the K=8, PG=8, gamma=1
``dense_sweep`` scenario that is 2.5 KiB of bitsets in place of 594,210
stored indices.

N_s counts the distinct indices of a register, which its boxes may share,
so it comes from a sort.  Sort keys are (index << B) | row id, where
B = (rows - 1).bit_length(), so B = K for delays (0,).  The count runs in
slices, each sorted, collapsed to one mask per distinct index, counted
and freed.  A slice row is one table row under one code of the h leading
chips: the (2*gamma + 1)^(PG - h) indices that share both.  Leading chips
are an index's most significant digits, so runs of leading codes are runs
of indices that never overlap, and each slice, a run of leading codes
with about ``SLICE_BYTES`` of sort keys, is counted on its own.  h follows
from the sizes alone: the fewest leading chips for which the slice rows of
one leading code, at most rows * (2*gamma + 1)^(PG - h) keys, fit in
``SLICE_BYTES``.  A slice's collapse holds its keys, its row ids in the
narrowest width that holds B bits and the masks those ids gather, and
frees the keys before the run starts are found: about 3 bytes of scratch
per byte of keys, so a 256 KiB slice fits a core's 2 MiB L2 cache.
Small scenarios take h = 0 and one slice; ``dense_sweep`` takes h = 3 and
25 slices, and its build peaks at 0.78 MiB under ``tracemalloc``.

Widths follow from the scenario's sizes alone.  Boxes are always unsigned
32-bit, since N_Q <= ``config.MAX_REGISTER_BITS`` = 24; sort keys are
unsigned 32-bit when N_Q + B <= 32, else ``np.int64``; masks take the
narrowest unsigned width that holds 2K bits.  Registers depend only on the
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

# Bytes of sort keys per slice of the N_s count (see _slicing), and of row
# bitsets per chunk of probes in RegisterBank.contains.
SLICE_BYTES = 1 << 18


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
        if values.size:
            values = values[np.concatenate(([True], values[1:] != values[:-1]))]
        values = values.astype(np.int64, copy=False)
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

    @property
    def n_s(self) -> int:
        return self.members.size


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


def _slicing(scenario: Scenario, rows: int, key_bytes: int) -> tuple[int, int]:
    """(h, rows per slice) of the N_s count from ``rows`` table rows; see the module docstring.

    h is the fewest leading chips for which the slice rows of one leading
    code, at most ``rows`` rows of (2*gamma + 1)**(PG - h) keys of
    ``key_bytes`` bytes, fit in SLICE_BYTES, or PG when none do.  A slice
    takes about SLICE_BYTES of slice rows.
    """
    lattice = 2 * scenario.gamma + 1
    h = next((h for h in range(scenario.PG)
              if rows * key_bytes * lattice ** (scenario.PG - h) <= SLICE_BYTES),
             scenario.PG)
    return h, max(1, SLICE_BYTES // (key_bytes * lattice ** (scenario.PG - h)))


def _chip_codes(scenario: Scenario, signatures: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Chip codes of each bit pattern's box: codes[p, n, j], as unsigned 32-bit words.

    Entry (p, n, j) is chip n of the noiseless waveform of pattern p under
    ``signatures``, shifted by lattice offset eps_j = (j - gamma)*step and
    quantized.  This is the one quantization of
    waveforms into box codes; ``enumerate_hypotheses`` and ``build_bank``
    both use it.  A box packs into indices below 2^N_Q <= 2^24, so the
    codes' width holds every index ``_pack_offsets`` makes of them.
    """
    spec = scenario.quantizer
    lattice = spec.step * np.arange(-scenario.gamma, scenario.gamma + 1, dtype=float)
    base = noiseless_waveforms(scenario.amplitude_vector(), signatures, patterns)
    return quantize_waveform(base[:, :, None] + lattice, spec).astype(np.uint32)


def _pack_offsets(codes: np.ndarray, levels: int, head=None, unit: int = 1) -> np.ndarray:
    """Packed indices of every combination of per-chip offsets, one row per row of ``codes``.

    Row r of the result holds, for ``codes`` of shape (rows, chips, L), the
    L**chips values head[r] + unit * index, in the dtype of ``codes``, where
    index packs one code per chip, chip 0 most significant, and ``head``
    is a (rows, 1) array or None for zeros.
    """
    rows, chips, _ = codes.shape
    index = np.zeros((rows, 1), dtype=codes.dtype) if head is None else head
    # Chips are prepended from the last, so every broadcast add runs along
    # the long trailing axis.
    scale = unit
    for n in range(chips - 1, -1, -1):
        index = (codes[:, n, :, None] * scale + index[:, None, :]).reshape(rows, -1)
        scale *= levels
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
        codes = _chip_codes(scenario, sig, patterns)
        chunks.append(_pack_offsets(codes, scenario.quantizer.levels).ravel())
    return SparseRegister(np.concatenate(chunks), scenario.register_bits)


def register_bit(user, bit):
    """Mask bit of register (user, bit): 2*user for bit +1, 2*user + 1 for bit -1.

    Works elementwise on integer arrays of users and bits.
    """
    return 2 * user + (bit == -1)


@dataclass(frozen=True, eq=False)
class RegisterBank:
    """All 2K hypothesis registers of a scenario, as bitsets of its box table's rows.

    Row r of the table is one bit pattern's box, a product of per-chip code
    sets, and each register is a union of rows.  A bitset holds row r in
    bit r % 64 of its ``np.uint64`` word r // 64; the bits past the last
    row are zero.  ``allow[n, c]`` (PG, levels, words) is the bitset of the
    rows whose chip-n code set holds code c, and ``rows[:, register_bit(k, b)]``
    (words, 2K) that of the rows of register (k, b).  A waveform's chip
    codes lie in a row's box when the row allows each of them, so the AND
    of their PG ``allow`` bitsets holds the rows that reach them.
    ``n_s[register_bit(k, b)]`` is register (k, b)'s population N_s.
    """

    allow: np.ndarray
    rows: np.ndarray
    n_s: tuple[int, ...]

    def contains(self, codes) -> np.ndarray:
        """Membership of chip codes (..., PG) in every register.

        ``codes`` are ``quantize_waveform`` codes, each in [0, levels).
        Returns bools of shape (..., 2K); column ``register_bit(k, b)`` is
        the membership in register (k, b).  Probes run in chunks of at most
        ``SLICE_BYTES`` of row bitsets.
        """
        codes = np.asarray(codes)
        chips, _, words = self.allow.shape
        flat = codes.reshape(-1, chips)
        found = np.zeros((len(flat), len(self.n_s)), dtype=bool)
        step = max(1, SLICE_BYTES // (8 * words))
        for lo in range(0, len(flat), step):
            part = flat[lo:lo + step]
            hit = self.allow[0, part[:, 0]]
            for n in range(1, chips):
                hit &= self.allow[n, part[:, n]]
            # Only the nonzero words of a probe's bitset can meet a
            # register's; the probe is in every register that one of them meets.
            owner, word = np.nonzero(hit)
            first = np.flatnonzero(np.diff(owner, prepend=-1))
            found[lo + owner[first]] = np.logical_or.reduceat(
                hit[owner, word, None] & self.rows[word] != 0, first)
        return found.reshape(codes.shape[:-1] + (-1,))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, in order."""
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _lead_rows(table: np.ndarray, h: int, levels: int, bits: int):
    """(leading codes, row ids) of the table's slice rows, sorted by leading code.

    A slice row is one table row under one packed code of its h leading
    chips: the (2*gamma + 1)**(PG - h) indices that row reaches with those
    leading codes.  Both arrays are in the dtype of ``table``, which holds
    (leading code << bits) | row id.
    """
    ids = np.arange(len(table), dtype=table.dtype)[:, None]
    rows = _pack_offsets(table[:, :h], levels, ids, 1 << bits).reshape(-1)
    rows.sort()
    rows = _distinct(rows)
    return rows >> bits, rows & (1 << bits) - 1


def _collapse(keys: np.ndarray, row_masks: np.ndarray, bits: int) -> np.ndarray:
    """OR of the masks of the table rows that reach each distinct index of ``keys``.

    ``keys`` is a fresh array of sort keys (index << bits) | row id, sorted
    and then shifted to indices in place, so every pass over it runs in the
    key width.  The row ids are copied out in the narrowest unsigned width
    that holds ``bits`` bits, and the masks keep the width of ``row_masks``.
    """
    keys = keys.reshape(-1)
    keys.sort()
    ids = np.empty(keys.size, dtype=np.min_scalar_type((1 << bits) - 1))
    np.bitwise_and(keys, (1 << bits) - 1, out=ids, casting="unsafe")
    keys >>= bits
    gathered = row_masks[ids]
    del ids
    # A run of one index starts where an index differs from its predecessor.
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    del keys  # free the keys before the run starts and the reduction are allocated
    starts = np.flatnonzero(first)
    del first
    return np.bitwise_or.reduceat(gathered, starts)


def _bit_counts(masks: np.ndarray, n_bits: int) -> np.ndarray:
    """How many masks have bit j set, for j < n_bits, counted bit by bit."""
    return np.array([np.count_nonzero(masks & (1 << j)) for j in range(n_bits)])


def build_bank(scenario: Scenario) -> RegisterBank:
    """Every (user, bit) register of ``scenario`` from one table of box rows.

    With delay 0 in ``delays``, register (k, b) holds the boxes of the full
    bit patterns whose bit k is b, each pattern setting one mask bit per
    user.  Every other own-signature delay variant of user k adds a box over
    all 2**K patterns that sets only bit (k, p_k).  The table of box rows,
    its bitsets and the slices of the N_s count are described in the module
    docstring.  Each register holds the indices of its
    ``enumerate_hypotheses`` register.
    """
    _check_budget(scenario)
    K = scenario.K
    # Bit k of pattern id p is 1 when user k sends -1.
    flips = (np.arange(1 << K)[:, None] >> np.arange(K)) & 1
    patterns = 1.0 - 2.0 * flips
    # own_bits[p, k]: the mask bit pattern p sets for user k, in the
    # narrowest unsigned width that holds 2K register bits.
    mask_dtype = np.min_scalar_type((1 << 2 * K) - 1)
    own_bits = (np.int64(1) << register_bit(np.arange(K), patterns)).astype(mask_dtype)
    signatures = scenario.signature_matrix()

    # One (chip codes, mask each pattern sets) per box.
    boxes = []
    if 0 in scenario.delays:
        boxes.append((_chip_codes(scenario, signatures, patterns),
                      own_bits.sum(axis=1, dtype=mask_dtype)))
    for k in range(K):
        # With delay 0, the first variant is the unshifted signature: the
        # shared box above covers it.
        variants = shift_variants(signatures[k], scenario.delays)
        for own in variants[1:] if 0 in scenario.delays else variants:
            sig = signatures.copy()
            sig[k] = own
            boxes.append((_chip_codes(scenario, sig, patterns), own_bits[:, k]))

    # Row r of the table is one pattern of one box; with delays (0,), bits = K.
    bits = ((len(boxes) << K) - 1).bit_length()
    key_dtype = np.dtype(np.uint32 if scenario.register_bits + bits <= 32 else np.int64)
    table = np.concatenate([codes for codes, _ in boxes], dtype=key_dtype)
    row_masks = np.concatenate([masks for _, masks in boxes])
    del boxes, patterns, flips  # the table holds what the bitsets and slices read

    # Bit r % 64 of word r // 64 of a bitset stands for table row r.
    spec = scenario.quantizer
    row = np.arange(len(table))
    word, bit = row // 64, np.uint64(1) << (row % 64).astype(np.uint64)
    allow = np.zeros((scenario.PG, spec.levels, -(-len(table) // 64)), dtype=np.uint64)
    for n in range(scenario.PG):
        # Row r allows every code of its chip-n lattice, table[r, n, :].
        np.bitwise_or.at(allow[n], (table[:, n], word[:, None]), bit[:, None])
    rows = np.zeros((allow.shape[-1], 2 * K), dtype=np.uint64)
    for j in range(2 * K):
        held = (row_masks >> j) & 1 == 1
        np.bitwise_or.at(rows[:, j], word[held], bit[held])
    del row, word, bit

    # N_s counts distinct indices, which the boxes of one register may
    # share.  Leading codes are the most significant digits of an index, so
    # a run of them is a run of indices: each slice, the rows of a run of
    # leading codes with about SLICE_BYTES of keys, is collapsed, counted
    # and freed on its own.
    h, rows_per_slice = _slicing(scenario, len(table), key_dtype.itemsize)
    leads, ids = _lead_rows(table, h, spec.levels, bits)
    cuts = np.searchsorted(leads, _distinct(leads[::rows_per_slice])).tolist() + [len(leads)]
    tail = spec.levels ** (scenario.PG - h)
    n_s = np.zeros(2 * K, dtype=np.int64)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        # Keys (index << bits) | row id, the leading codes above the trailing chips'.
        head = ((leads[lo:hi] * tail) << bits | ids[lo:hi])[:, None]
        n_s += _bit_counts(_collapse(_pack_offsets(table[ids[lo:hi], h:], spec.levels, head,
                                                   1 << bits), row_masks, bits), 2 * K)
    allow.setflags(write=False)
    rows.setflags(write=False)
    return RegisterBank(allow, rows, tuple(n_s.tolist()))
