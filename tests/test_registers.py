import functools
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_orthogonal, make_scenario, random_unit_signatures
from qmud import (QuantizerSpec, QubitState, Scenario, SparseRegister, enumerate_hypotheses,
                  pack_basis, quantize_waveform, reduce_to_qubit, shift_variants, transmit)
from qmud import registers
from qmud.config import default_amplitude
from qmud.errors import (BudgetExceeded, CodeOutOfRange, DelayOutOfRange,
                         EmptyRegister, ValidationError)
from qmud.registers import _slicing, build_bank, register_bit
from qmud.rng import SplitMix64
from scalar_reference import reference_hypotheses

SPEC22 = QuantizerSpec(n_ch=2, amplitude=2.0)

# PG=1 near-far case where a noiseless chip, -0.1 - 0.2 - 0.4, sits on a
# quantizer edge (step 0.1): summing the users in another order than the
# transmitter moves it into the neighbouring cell.
NEAR_FAR_EDGE = Scenario(
    K=3, PG=1, signatures=((1.0,),) * 3, energies=(1.0,) * 3, gains=(0.1, 0.2, 0.4),
    noise_sigma=0.0, quantizer=QuantizerSpec(n_ch=4, amplitude=0.8))


@st.composite
def edge_prone_scenarios(draw, max_gamma=2, zero_delay=False):
    """Small scenarios whose noiseless chips often land exactly on quantizer edges.

    Chips come from a coarse integer grid and gains, energies and the
    quantizer range from short lists of round values.
    """
    K = draw(st.integers(1, 4))
    PG = draw(st.integers(1, 4))
    signatures = []
    for _ in range(K):
        chips = draw(st.lists(st.integers(-2, 2), min_size=PG, max_size=PG).filter(any))
        norm = math.sqrt(sum(c * c for c in chips))
        signatures.append(tuple(c / norm for c in chips))
    values = st.sampled_from((0.1, 0.2, 0.4, 0.7, 1.0, -0.5))
    gains = draw(st.lists(values, min_size=K, max_size=K))
    energies = draw(st.lists(st.sampled_from((0.25, 1.0, 2.0)), min_size=K, max_size=K))
    delays = draw(st.sets(st.integers(0, PG - 1), min_size=1))
    quantizer = QuantizerSpec(n_ch=draw(st.integers(1, 6)),
                              amplitude=draw(st.sampled_from((0.5, 0.8, 1.2, 2.4))))
    return Scenario(K=K, PG=PG, signatures=tuple(signatures), energies=tuple(energies),
                    gains=tuple(gains), noise_sigma=0.0, quantizer=quantizer,
                    gamma=draw(st.integers(0, max_gamma)),
                    delays=tuple(delays | {0}) if zero_delay else tuple(delays))


def quantize_one(x, spec):
    """Code of a single chip through the waveform quantizer."""
    (code,) = quantize_waveform([x], spec)
    return int(code)


class TestQuantizeWaveform:
    def test_interior_value(self):
        assert quantize_one(0.6, SPEC22) == 2

    def test_lower_saturation(self):
        assert quantize_one(-2.0, SPEC22) == 0
        assert quantize_one(-100.0, SPEC22) == 0

    def test_upper_saturation(self):
        assert quantize_one(5.0, SPEC22) == 3

    @given(st.floats(-50, 50), st.integers(1, 8), st.floats(0.1, 10))
    @settings(max_examples=200, deadline=None)
    def test_code_always_in_range(self, x, n_ch, amplitude):
        spec = QuantizerSpec(n_ch, amplitude)
        assert 0 <= quantize_one(x, spec) < spec.levels

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, x, y):
        lo, hi = sorted((x, y))
        assert quantize_one(lo, SPEC22) <= quantize_one(hi, SPEC22)

    def test_exact_step_shift_moves_code_by_one(self):
        spec = QuantizerSpec(n_ch=3, amplitude=1.5)
        x = 0.31
        base = quantize_one(x, spec)
        assert quantize_one(x + spec.step, spec) == base + 1
        assert quantize_one(x - spec.step, spec) == base - 1

    def test_any_shape_equals_its_elementwise_codes(self):
        spec = QuantizerSpec(n_ch=3, amplitude=1.5)
        chips = np.random.default_rng(5).uniform(-2.0, 2.0, size=(3, 4, 5))
        chips[0, 0, :3] = (-1.5, 1.5, -1.5 + spec.step)  # rails and an edge
        codes = quantize_waveform(chips, spec)
        assert codes.shape == chips.shape and codes.dtype == np.int64
        for x, code in zip(chips.ravel().tolist(), codes.ravel().tolist()):
            scalar = math.floor((x + spec.amplitude) / spec.step)
            assert code == min(max(scalar, 0), spec.levels - 1) == quantize_one(x, spec)


class TestPackBasis:
    def test_worked_example(self):
        assert pack_basis((2, 3), SPEC22) == 11

    def test_all_zero(self):
        assert pack_basis((0, 0, 0), SPEC22) == 0

    def test_single_chip_identity(self):
        assert pack_basis((3,), SPEC22) == 3

    def test_out_of_range_code(self):
        with pytest.raises(CodeOutOfRange):
            pack_basis((4, 0), SPEC22)

    def test_arrays_pack_row_by_row(self):
        spec = QuantizerSpec(n_ch=3, amplitude=1.0)
        codes = np.random.default_rng(5).integers(0, spec.levels, size=(2, 25, 4))
        packed = pack_basis(codes, spec)
        assert packed.dtype == np.int64 and packed.shape == (2, 25)
        for row, index in zip(codes.reshape(-1, 4).tolist(), packed.ravel().tolist()):
            expected = 0
            for code in row:
                expected = expected * spec.levels + code
            assert index == expected == pack_basis(tuple(row), spec)

    @pytest.mark.parametrize("bad", [-1, 4, 2**70])
    def test_one_bad_code_anywhere_raises(self, bad):
        codes = np.zeros((6, 3), dtype=object)
        codes[4, 2] = bad
        with pytest.raises(CodeOutOfRange):
            pack_basis(codes, SPEC22)

    @pytest.mark.parametrize("pg,n_ch", [(3, 4), (6, 2), (12, 1)])
    def test_injective_over_all_code_tuples(self, pg, n_ch):
        spec = QuantizerSpec(n_ch=n_ch, amplitude=1.0)
        seen = set()
        for codes in itertools.product(range(spec.levels), repeat=pg):
            idx = pack_basis(codes, spec)
            assert idx not in seen
            seen.add(idx)
        assert len(seen) == spec.levels ** pg


class TestShiftVariants:
    def test_worked_example(self):
        out = shift_variants((1.0, 1.0, 0.0, 0.0), {0, 1})
        assert out == [(1.0, 1.0, 0.0, 0.0), (0.0, 1.0, 1.0, 0.0)]

    def test_identity_shift(self):
        assert shift_variants((1.0, 2.0), {0}) == [(1.0, 2.0)]

    def test_shift_invariant_input_deduplicates(self):
        assert shift_variants((0.0, 0.0, 0.0), {0, 1, 2}) == [(0.0, 0.0, 0.0)]

    def test_delay_out_of_range(self):
        with pytest.raises(DelayOutOfRange):
            shift_variants((1.0, 0.0), {2})
        with pytest.raises(DelayOutOfRange):
            shift_variants((1.0, 0.0), {-1})


class TestEnumerateHypotheses:
    def test_single_user_noiseless_singleton(self):
        inv = 1.0 / math.sqrt(2.0)
        sc = make_scenario(K=1, PG=2, signatures=((inv, inv),), energies=(1.0,),
                           gains=(1.0,), quantizer=SPEC22)
        reg = enumerate_hypotheses(sc, 0, 1)
        # One hypothesis: chips (0.7071, 0.7071) -> codes (2, 2) -> index 10.
        assert reg.n_s == 1
        assert reg.members.tolist() == [10]

    def test_noise_lattice_counting_bound(self):
        inv = 1.0 / math.sqrt(2.0)
        sc = make_scenario(K=1, PG=2, signatures=((inv, inv),), energies=(1.0,),
                           gains=(1.0,), quantizer=SPEC22, gamma=1)
        reg = enumerate_hypotheses(sc, 0, 1)
        assert 1 <= reg.n_s <= 9

    def test_interferer_counting_bound(self, two_user_scenario):
        reg = enumerate_hypotheses(two_user_scenario, 0, 1)
        assert reg.n_s <= 2  # two interferer patterns, gamma=0

    def test_lattice_offsets_land_on_adjacent_codes(self):
        sc = make_scenario(K=1, PG=2, signatures=((0.6, 0.8),), energies=(1.0,),
                           gains=(1.0,), quantizer=QuantizerSpec(4, 2.0), gamma=2)
        reg = enumerate_hypotheses(sc, 0, 1)
        spec = sc.quantizer
        base = quantize_waveform((0.6, 0.8), spec)
        expected = set()
        for d0 in range(-2, 3):
            for d1 in range(-2, 3):
                codes = (min(max(base[0] + d0, 0), spec.levels - 1),
                         min(max(base[1] + d1, 0), spec.levels - 1))
                expected.add(pack_basis(codes, spec))
        assert set(reg.members) == expected

    def test_delay_variants_widen_the_register(self):
        sc = make_scenario(K=1, PG=2, signatures=((1.0, 0.0),), energies=(1.0,),
                           gains=(1.0,), quantizer=SPEC22, delays=(0, 1))
        reg = enumerate_hypotheses(sc, 0, 1)
        spec = sc.quantizer
        expected = {
            pack_basis(quantize_waveform((1.0, 0.0), spec), spec),
            pack_basis(quantize_waveform((0.0, 1.0), spec), spec),
        }
        assert set(reg.members) == expected

    def test_deterministic(self, two_user_scenario):
        a = enumerate_hypotheses(two_user_scenario, 1, -1)
        b = enumerate_hypotheses(two_user_scenario, 1, -1)
        assert a == b

    def test_budget_exceeded(self):
        sc = make_scenario(gamma=20)  # 41**4 * 2 > 1e6
        with pytest.raises(BudgetExceeded):
            enumerate_hypotheses(sc, 0, 1)

    def test_bad_user_and_bit(self, two_user_scenario):
        with pytest.raises(ValidationError):
            enumerate_hypotheses(two_user_scenario, 5, 1)
        with pytest.raises(ValidationError):
            enumerate_hypotheses(two_user_scenario, 0, 0)

    def test_coverage_under_small_noise(self):
        # Noise at a quarter of the lattice reach: the received index stays
        # inside the true-bit register for every trial at this seed.
        sc = make_scenario(gamma=1, noise_sigma=make_scenario().quantizer.step / 4)
        regs = {(k, b): enumerate_hypotheses(sc, k, b)
                for k in range(2) for b in (1, -1)}
        rng = SplitMix64(2024)
        for _ in range(300):
            bits = (1 if rng.uniform() < 0.5 else -1, 1 if rng.uniform() < 0.5 else -1)
            received = transmit(sc, bits, rng)
            v = pack_basis(quantize_waveform(received, sc.quantizer), sc.quantizer)
            assert v in regs[(0, bits[0])].members
            assert v in regs[(1, bits[1])].members


class TestVectorizedEnumeration:
    @given(edge_prone_scenarios())
    @example(make_scenario(K=1, PG=2, signatures=((0.6, 0.8),), energies=(1.0,),
                           gains=(1.0,), gamma=2, delays=(0, 1)))
    @example(NEAR_FAR_EDGE)
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_reference(self, sc):
        for k in range(sc.K):
            for bit in (1, -1):
                reg = enumerate_hypotheses(sc, k, bit)
                assert reg.members.tolist() == sorted(reference_hypotheses(sc, k, bit))

    @given(edge_prone_scenarios(max_gamma=0, zero_delay=True))
    @example(NEAR_FAR_EDGE)
    @settings(max_examples=150, deadline=None)
    def test_noiseless_waveform_lies_in_its_true_bit_register(self, sc):
        # sigma = 0 and gamma = 0: the transmitter and the register bank must
        # quantize every bit pattern's waveform into the same cell.
        spec = sc.quantizer
        regs = {(k, b): enumerate_hypotheses(sc, k, b) for k in range(sc.K) for b in (1, -1)}
        for pattern in itertools.product((-1, 1), repeat=sc.K):
            v = pack_basis(quantize_waveform(transmit(sc, pattern, SplitMix64(0)), spec), spec)
            for k in range(sc.K):
                assert v in regs[(k, pattern[k])], (pattern, k)

    def test_near_far_edge_chip(self):
        received = transmit(NEAR_FAR_EDGE, (-1, -1, -1), SplitMix64(0))
        v = pack_basis(quantize_waveform(received, NEAR_FAR_EDGE.quantizer),
                       NEAR_FAR_EDGE.quantizer)
        for k in range(3):
            assert v in enumerate_hypotheses(NEAR_FAR_EDGE, k, -1)


@st.composite
def bank_scenarios(draw):
    """Scenarios for the bank's differential test: K 1-5, PG 1-4, gamma 0-2,
    N_ch 1-4, the delay sets {0}, {0,1}, {1} and {1,2}, near-far gains, and a
    quantizer range down to a quarter of the peak noiseless chip.

    Chips come from a coarse integer grid, so noiseless chips often land on
    quantizer edges.  Below a range factor of 1 the peak chip saturates, and
    since flipping every bit negates a waveform it does so at both rails.
    """
    K = draw(st.integers(1, 5))
    PG = draw(st.integers(1, 4))
    delays = draw(st.sampled_from([d for d in ((0,), (0, 1), (1,), (1, 2)) if max(d) < PG]))
    signatures = []
    for _ in range(K):
        chips = draw(st.lists(st.integers(-2, 2), min_size=PG, max_size=PG).filter(any))
        norm = math.sqrt(sum(c * c for c in chips))
        signatures.append(tuple(c / norm for c in chips))
    gains = tuple(draw(st.lists(st.sampled_from((1.0, 0.4, 0.2, 0.1, -0.7)),
                                min_size=K, max_size=K)))
    energies = (1.0,) * K
    peak = default_amplitude(signatures, energies, gains) / 1.5
    range_factor = draw(st.sampled_from((0.25, 0.6, 1.0, 1.5)))
    return Scenario(K=K, PG=PG, signatures=tuple(signatures), energies=energies, gains=gains,
                    noise_sigma=0.0,
                    quantizer=QuantizerSpec(n_ch=draw(st.integers(1, 4)),
                                            amplitude=range_factor * peak),
                    gamma=draw(st.integers(0, 2)), delays=delays)


# Bank width cases: (scenario, mask dtype).  The cases cover both key
# widths and every mask width, the narrowest unsigned width that holds 2K
# bits, and bitsets of one and of several 64-bit words.
WIDTH_CASES = {
    # register_bits + K = 24 + 9 > 32: int64 keys.
    "int64-keys": (make_scenario(K=9, PG=3, signatures=random_unit_signatures(
        np.random.default_rng(9), 9, 3), energies=(1.0,) * 9, gains=(1.0,) * 9,
        quantizer=QuantizerSpec(n_ch=8, amplitude=3.0)), np.uint32),
    # 2K = 34 > 32: 64-bit masks, keys of 8 + 17 bits, 2048 words per bitset.
    "int64-masks": (make_scenario(K=17, PG=1, signatures=((1.0,),) * 17, energies=(1.0,) * 17,
                                  gains=tuple(0.7 ** np.arange(17)),
                                  quantizer=QuantizerSpec(n_ch=8, amplitude=3.5)),
                    np.uint64),
    # register_bits + K = 24 + 8 = 32 exactly: the dense_sweep shape.
    "32-bit-boundary": (make_orthogonal(K=8, PG=8), np.uint16),
    # Delay-variant boxes in the delay-0 box's table, with 32-bit keys.
    "merge-32": (make_scenario(gamma=1, delays=(0, 1, 3)), np.uint8),
    # Delay-variant boxes in the delay-0 box's table, with int64 keys.
    "merge-int64": (make_scenario(K=9, PG=3, signatures=random_unit_signatures(
        np.random.default_rng(3), 9, 3), energies=(1.0,) * 9, gains=(1.0,) * 9,
        quantizer=QuantizerSpec(n_ch=8, amplitude=3.0), delays=(0, 2)), np.uint32),
    # 9 boxes of 2**8 rows: 2304 rows take 12 row-id bits, and 24 + 12 > 32
    # widens the keys to int64, though 24 + K = 32 fits the boxes in uint32.
    "table-int64": (make_orthogonal(K=8, PG=8, delays=(0, 1)), np.uint16),
    # 2K = 8 fills a uint8 mask.
    "8-bit-masks": (make_orthogonal(K=4, PG=4, gamma=1), np.uint8),
    # 2K = 10 is the fewest register bits past a uint8 mask; delay-variant boxes too.
    "16-bit-masks": (make_orthogonal(K=5, PG=8, delays=(0, 2)), np.uint16),
    # N_Q = 20, the widest register that the tests probe index by index.
    "n_q-20": (make_scenario(gamma=1, quantizer=QuantizerSpec(n_ch=5, amplitude=1.5)), np.uint8),
    # 9 boxes of 2**4 rows: 144 rows fill two words and 16 bits of a third.
    "word-boundary": (make_orthogonal(K=4, PG=4, gamma=1, delays=(0, 1, 2)), np.uint8),
}


# Sort-key width of each WIDTH_CASES build: uint32 when register_bits plus
# the row-id bits fit in 32, else int64.
KEY_DTYPES = {"int64-keys": np.int64, "int64-masks": np.uint32, "32-bit-boundary": np.uint32,
              "merge-32": np.uint32, "merge-int64": np.int64, "table-int64": np.int64,
              "8-bit-masks": np.uint32, "16-bit-masks": np.uint32, "n_q-20": np.uint32,
              "word-boundary": np.uint32}


def enumerations(sc):
    """Every register of ``sc`` by its own enumeration, keyed by register_bit."""
    return {register_bit(k, b): enumerate_hypotheses(sc, k, b)
            for k in range(sc.K) for b in (1, -1)}


@functools.lru_cache(maxsize=None)
def width_enumerations(case):
    """``enumerations`` of WIDTH_CASES[case], made once: K = 17 takes seconds."""
    return enumerations(WIDTH_CASES[case][0])


def union(regs):
    """Every index that some register of ``regs`` holds, in increasing order."""
    return registers._distinct(np.sort(np.concatenate([reg.members for reg in regs.values()])))


def build_bank_in_slices(sc, slice_bytes):
    """build_bank with the slice cap set to ``slice_bytes``; 1 makes every chip a leading chip."""
    with mock.patch.object(registers, "SLICE_BYTES", slice_bytes):
        assert slice_bytes > 1 or _slicing(sc, 2, 4) == (sc.PG, 1)
        return build_bank(sc)


class TestRegisterBank:
    @given(bank_scenarios(), st.sampled_from((registers.SLICE_BYTES, 1)))
    @example(make_scenario(K=2, PG=2, signatures=((1.0, 0.0), (0.6, 0.8)), gamma=1,
                           delays=(1,), quantizer=QuantizerSpec(n_ch=2, amplitude=0.3)), 1)
    @example(NEAR_FAR_EDGE, registers.SLICE_BYTES)
    @example(make_scenario(gamma=2, delays=(0, 1, 3)), 1)
    @settings(max_examples=120, deadline=None)
    def test_every_register_equals_its_own_enumeration(self, sc, slice_bytes):
        # A slice cap of 1 byte splits even these small counts into one
        # slice per distinct index, delay-variant boxes included.
        bank = build_bank_in_slices(sc, slice_bytes)
        regs = enumerations(sc)
        for k, bit in itertools.product(range(sc.K), (1, -1)):
            reg = regs[register_bit(k, bit)]
            assert reg.members.tolist() == sorted(reference_hypotheses(sc, k, bit))
        # Membership of every index of the register width, stored or not.
        v = np.arange(1 << sc.register_bits)
        contains = bank.contains(v)
        assert contains.shape == (v.size, 2 * sc.K)
        for j, reg in regs.items():
            assert bank.n_s[j] == reg.n_s
            assert np.array_equal(contains[:, j], np.isin(v, reg.members))

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            build_bank(make_scenario(gamma=20))  # 41**4 * 2 > 1e6

    def test_build_peak_is_below_the_per_register_builds(self):
        # The K=8, PG=8, gamma=1 Walsh scenario of the dense_sweep benchmark
        # workload: 16 registers of 2**7 * 3**8 raw indices each.
        # Its keys fill all 32 bits: 24 index bits plus K = 8.
        sc = make_orthogonal(K=8, PG=8, gamma=1)
        peaks, built = [], []
        for build in (lambda: enumerations(sc), lambda: build_bank(sc)):
            tracemalloc.start()
            try:
                built.append(build())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        per_register, peak = peaks
        assert peak < per_register
        # 0.78 MiB for 2.5 KiB of bitsets, all of it the N_s count's slices
        # of 3 leading chips: a slice's collapse holds about 3 bytes per
        # byte of its keys.  A bank of 16-bit members under a bucket index
        # peaked at 2.87 MiB, one of 32-bit members in 1 MiB slices at
        # 5.04 MiB, and one built as one slice at 20.7 MB.
        regs, bank = built
        assert bank.allow.nbytes + bank.rows.nbytes == 2560
        assert peak <= 4 * registers.SLICE_BYTES
        for j, reg in regs.items():
            assert bank.n_s[j] == reg.n_s
        members = union(regs)
        probes = np.concatenate([members, members + 1])
        contains = bank.contains(probes)
        for j, reg in regs.items():
            assert np.array_equal(contains[:, j], reg.contains(probes))

    @pytest.mark.parametrize("case", WIDTH_CASES)
    def test_registers_equal_their_enumerations(self, case):
        sc = WIDTH_CASES[case][0]
        bank = build_bank(sc)
        regs = width_enumerations(case)
        # At K = 17 the scalar reference takes about 1.5 s per register:
        # it checks the highest mask bit there, above bit 32.
        for k, bit in itertools.product(range(sc.K), (1, -1)):
            reg = regs[register_bit(k, bit)]
            assert reg.members.dtype == np.int64 and not reg.members.flags.writeable
            if sc.K < 10 or (k, bit) == (sc.K - 1, -1):
                assert reg.members.tolist() == sorted(reference_hypotheses(sc, k, bit))
        assert bank.n_s == tuple(regs[j].n_s for j in range(2 * sc.K))
        if sc.register_bits <= 20:
            # Every index of the register width: a set equality.
            probes = np.arange(1 << sc.register_bits)
        else:
            members = union(regs)
            probes = np.concatenate([members, members - 1, members + 1,
                                     [-1, 1 << sc.register_bits]])
        contains = bank.contains(probes)
        for j, reg in regs.items():
            assert np.array_equal(contains[:, j], np.isin(probes, reg.members))
        # Bitsets of 64 rows per word, with no bit set past the last row.
        # The table has 2**K rows per box, one box per delay variant, and
        # every user's delay-0 variant shares one box.
        boxes = sum(len(shift_variants(sig, sc.delays)) for sig in sc.signatures)
        rows = (boxes - (sc.K - 1 if 0 in sc.delays else 0)) << sc.K
        assert bank.allow.shape == (sc.PG, sc.quantizer.levels, -(-rows // 64))
        assert bank.rows.shape == (-(-rows // 64), 2 * sc.K)
        assert bank.allow.dtype == bank.rows.dtype == np.uint64
        if rows % 64:
            assert not np.any(bank.allow[..., -1] >> np.uint64(rows % 64))
            assert not np.any(bank.rows[-1] >> np.uint64(rows % 64))

    @pytest.mark.parametrize("case", WIDTH_CASES)
    def test_slices_join_to_the_one_slice_bank(self, case):
        sc = WIDTH_CASES[case][0]
        whole = build_bank_in_slices(sc, 1 << 62)
        for slice_bytes in (registers.SLICE_BYTES, 3000, 1):
            # A 1-byte cap counts one slice per distinct index.
            bank = build_bank_in_slices(sc, slice_bytes)
            assert bank.n_s == whole.n_s
            for got, want in ((bank.allow, whole.allow), (bank.rows, whole.rows)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert not got.flags.writeable

    @pytest.mark.parametrize("case", WIDTH_CASES)
    def test_probe_chunks_join_to_one_lookup(self, case):
        # A cap of 1 byte looks up one probe per chunk, 3000 bytes a few.
        sc = WIDTH_CASES[case][0]
        bank = build_bank(sc)
        reg = width_enumerations(case)[register_bit(0, 1)]
        probes = np.concatenate([reg.members, reg.members + 1, np.random.default_rng(5).integers(
            -1, (1 << sc.register_bits) + 1, 1000)]).reshape(-1, 2)
        whole = bank.contains(probes)
        assert np.array_equal(whole[..., register_bit(0, 1)], reg.contains(probes))
        for slice_bytes in (3000, 1):
            with mock.patch.object(registers, "SLICE_BYTES", slice_bytes):
                assert np.array_equal(bank.contains(probes), whole)

    @pytest.mark.parametrize("case", WIDTH_CASES)
    def test_key_width(self, case, monkeypatch):
        sc, mask_dtype = WIDTH_CASES[case]
        slices = []
        real = registers._collapse

        def recording(keys, row_masks, bits):
            # _collapse sorts its keys in place: keep a copy of what it was given.
            slices.append((keys.copy(), row_masks.dtype, len(row_masks), bits))
            return real(keys, row_masks, bits)

        monkeypatch.setattr(registers, "_collapse", recording)
        build_bank(sc)
        assert slices
        for keys, row_mask_dtype, rows, bits in slices:
            assert keys.dtype == KEY_DTYPES[case]
            assert row_mask_dtype == mask_dtype
            assert bits == (rows - 1).bit_length()
            assert (keys.dtype == np.uint32) == (sc.register_bits + bits <= 32)
            assert np.all(keys & ((1 << bits) - 1) < rows)
        if sc.delays == (0,):
            # One box of 2**K rows: B = K row-id bits.
            assert slices[0][2] == 1 << sc.K and slices[0][3] == sc.K
        # The slices hold every index of every register, each in one slice
        # and in increasing order across slices.
        indices = np.concatenate([registers._distinct(np.sort(keys.reshape(-1) >> bits))
                                  for keys, _, _, bits in slices])
        assert np.array_equal(indices, union(width_enumerations(case)))

    def test_slice_rule(self, two_user_scenario):
        # 2**8 rows x 3**(8 - h) uint32 keys fit in 256 KiB from h = 3 on,
        # and 256 KiB holds 269 slice rows of 3**5 keys.
        dense = make_orthogonal(K=8, PG=8, gamma=1)
        assert _slicing(dense, 1 << 8, 4) == (3, 269)
        # 2304 rows x 3**(8 - h) int64 keys fit from h = 6 on: 3640 slice rows of 3**2.
        assert _slicing(dense, 2304, 8) == (6, 3640)
        assert _slicing(two_user_scenario, 1 << 2, 4)[0] == 0
        with mock.patch.object(registers, "SLICE_BYTES", 1):
            assert _slicing(two_user_scenario, 1 << 2, 4) == (two_user_scenario.PG, 1)

    def test_contains_reports_indices_outside_the_width_as_absent(self):
        # 24-bit indices: a probe cast to 32 bits without a range check
        # would wrap 2**32 + m onto the stored m.
        sc = make_orthogonal(K=8, PG=8)
        bank = build_bank(sc)
        assert bank.n_q == 24
        regs = enumerations(sc)
        m = int(regs[0].members[5])
        values = [m, -1, -m, 1 << 24, (1 << 24) + m, (1 << 32) + m, (1 << 33) + m,
                  2**63 - 1, -(2**63), np.int64(m), np.uint32(m), np.int32(-1),
                  np.int64((1 << 32) + m), np.uint64((1 << 32) + m), np.uint64(2**64 - 1),
                  (1 << 64) + m, 2**70, float(m), m + 0.5]
        for v in values:
            expected = [bool(regs[j].contains(v)) for j in range(2 * sc.K)]
            assert bank.contains(v).tolist() == expected, v
        assert bank.contains(m).any()
        ints = np.array([m, -1, 1 << 24, (1 << 32) + m, 2**63 - 1, -(2**63) + m])
        contains = bank.contains(ints)
        for j, reg in regs.items():
            assert contains[:, j].tolist() == reg.contains(ints).tolist()
        assert not contains[1:].any()


class TestSparseRegisterApi:
    def test_construction_sorts_and_collapses_duplicates(self):
        expected = [1, 3, 200]
        for source in (frozenset({200, 3, 1}), [3, 200, 1, 3], (v for v in (200, 1, 3, 1)),
                       np.array([200, 3, 3, 1], dtype=np.int64),
                       np.array([3, 1, 200], dtype=np.uint16)):
            reg = SparseRegister(source, n_q=8)
            assert reg.members.dtype == np.int64
            assert reg.members.tolist() == expected
            assert reg.n_s == 3

    def test_members_support_in_len_and_iteration(self):
        reg = SparseRegister(frozenset({9, 2, 5}), n_q=4)
        assert 5 in reg.members and 7 not in reg.members
        assert len(reg.members) == 3
        assert [int(v) for v in reg.members] == [2, 5, 9]
        assert set(reg.members) == {2, 5, 9}

    def test_register_membership(self):
        reg = SparseRegister(range(0, 64, 3), n_q=6)
        for v in range(-2, 70):
            assert (v in reg) == (v % 3 == 0 and 0 <= v < 64)
        assert 2**70 not in reg

    @pytest.mark.parametrize("members", [range(0, 64, 3), []])
    def test_membership_of_edge_values(self, members):
        reg = SparseRegister(members, n_q=6)
        stored = set(reg.members.tolist())
        values = [-1, 0, 3, 5.0, 6.0, 6.5, np.int64(9), np.uint64(63), 2**24, 2**63 - 1,
                  2**63, 2**70]
        for v in values:
            assert (v in reg) == (v in stored), v
        ints = np.array([-1, 0, 3, 4, 63, 2**24, 2**63 - 1])
        assert reg.contains(ints).tolist() == [int(v) in stored for v in ints]

    def test_members_are_read_only(self):
        source = np.array([4, 1], dtype=np.int64)
        reg = SparseRegister(source, n_q=4)
        with pytest.raises(ValueError):
            reg.members[0] = 3
        source[0] = 2
        assert reg.members.tolist() == [1, 4]

    def test_equality(self):
        a = SparseRegister(frozenset({1, 2}), n_q=4)
        b = SparseRegister(np.array([2, 1, 2]), n_q=4)
        assert a == b
        assert a != SparseRegister(frozenset({1, 2}), n_q=5)
        assert a != SparseRegister(frozenset({1, 3}), n_q=4)
        assert a != frozenset({1, 2})

    @pytest.mark.parametrize("bad", [[-1], [16], [3, 2**70], np.array([0, 16]),
                                     np.array([-1, 2]), np.array([2**63], dtype=np.uint64)])
    def test_out_of_range_indices_rejected(self, bad):
        with pytest.raises(ValidationError):
            SparseRegister(bad, n_q=4)

    def test_empty_register(self):
        reg = SparseRegister(frozenset(), n_q=2)
        assert reg.n_s == 0 and len(reg.members) == 0
        assert 0 not in reg
        assert reg == SparseRegister(np.array([], dtype=np.int64), n_q=2)


class TestSparseRegisterStates:
    def test_membership_amplitude(self):
        reg = SparseRegister(frozenset({5, 9, 12, 14}), n_q=4)
        assert reduce_to_qubit(reg, 9).c1 == 0.5
        assert reduce_to_qubit(reg, 7).c1 == 0.0

    def test_singleton_amplitude(self):
        reg = SparseRegister(frozenset({3}), n_q=2)
        assert reduce_to_qubit(reg, 3).c1 == 1.0

    def test_empty_register_raises(self):
        reg = SparseRegister(frozenset(), n_q=2)
        with pytest.raises(EmptyRegister):
            reduce_to_qubit(reg, 0)

    def test_member_outside_width_rejected(self):
        with pytest.raises(ValidationError):
            SparseRegister(frozenset({16}), n_q=4)

    def test_reduce_present(self):
        reg = SparseRegister(frozenset({5, 9, 12, 14}), n_q=4)
        state = reduce_to_qubit(reg, 12)
        assert state.c0 == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        assert state.c1 == pytest.approx(0.5, abs=1e-15)

    def test_reduce_absent(self):
        reg = SparseRegister(frozenset({5}), n_q=4)
        assert reduce_to_qubit(reg, 7) == QubitState(1.0, 0.0)

    def test_reduce_singleton_present_is_orthogonal_state(self):
        reg = SparseRegister(frozenset({5}), n_q=4)
        assert reduce_to_qubit(reg, 5) == QubitState(0.0, 1.0)

    @given(st.integers(1, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_present_state_is_normalized(self, n_s):
        state = QubitState.present(n_s)
        assert abs(state.c0 ** 2 + state.c1 ** 2 - 1.0) <= 1e-12

    @given(st.integers(2, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_states_overlap_until_population_one(self, n_s):
        # <absent|present> = c0 = sqrt((N_s-1)/N_s) > 0 for N_s >= 2.
        assert QubitState.present(n_s).c0 > 0.0
        assert QubitState.present(1).c0 == 0.0

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ValidationError):
            QubitState(0.5, 0.5)

