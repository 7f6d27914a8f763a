import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_orthogonal, make_scenario
from qmud import (QuantizerSpec, QubitState, Scenario, SparseRegister, dump_register,
                  enumerate_hypotheses, load_register, pack_basis, quantize_waveform,
                  reduce_to_qubit, shift_variants, transmit)
from qmud.config import default_amplitude
from qmud.errors import (BudgetExceeded, CodeOutOfRange, DelayOutOfRange,
                         EmptyRegister, ValidationError)
from qmud.registers import build_bank, register_bit, unpack_basis
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
            assert unpack_basis(idx, spec, pg) == codes
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
        assert reg.sorted_members() == [10]

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
                assert reg.sorted_members() == sorted(reference_hypotheses(sc, k, bit))

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


class TestRegisterBank:
    @given(bank_scenarios())
    @example(make_scenario(K=2, PG=2, signatures=((1.0, 0.0), (0.6, 0.8)), gamma=1,
                           delays=(1,), quantizer=QuantizerSpec(n_ch=2, amplitude=0.3)))
    @example(NEAR_FAR_EDGE)
    @settings(max_examples=80, deadline=None)
    def test_every_register_equals_its_own_enumeration(self, sc):
        bank = build_bank(sc)
        regs = {}
        for k in range(sc.K):
            for bit in (1, -1):
                reg = enumerate_hypotheses(sc, k, bit)
                assert bank.register(k, bit) == reg
                assert reg.sorted_members() == sorted(reference_hypotheses(sc, k, bit))
                assert bank.n_s[register_bit(k, bit)] == reg.n_s
                regs[register_bit(k, bit)] = reg
        # Membership of every index of the register width, stored or not.
        v = np.arange(1 << sc.register_bits)
        contains = bank.contains(v)
        assert contains.shape == (v.size, 2 * sc.K)
        for j, reg in regs.items():
            assert np.array_equal(contains[:, j], np.isin(v, reg.members))

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            build_bank(make_scenario(gamma=20))  # 41**4 * 2 > 1e6

    def test_build_peak_is_below_the_per_register_builds(self):
        # The K=8, PG=8, gamma=1 Walsh scenario of the dense_sweep benchmark
        # workload: 16 registers of 2**7 * 3**8 raw indices each.
        sc = make_orthogonal(K=8, PG=8, gamma=1)
        peaks = []
        for build in (lambda: [enumerate_hypotheses(sc, k, b)
                               for k in range(sc.K) for b in (1, -1)],
                      lambda: build_bank(sc)):
            tracemalloc.start()
            try:
                built = build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del built
            peaks.append(peak)
        per_register, bank = peaks
        assert bank < per_register


class TestSparseRegisterApi:
    def test_construction_sorts_and_collapses_duplicates(self):
        expected = [1, 3, 200]
        for source in (frozenset({200, 3, 1}), [3, 200, 1, 3], (v for v in (200, 1, 3, 1)),
                       np.array([200, 3, 3, 1], dtype=np.int64),
                       np.array([3, 1, 200], dtype=np.uint16)):
            reg = SparseRegister(source, n_q=8)
            assert reg.members.dtype == np.int64
            assert reg.sorted_members() == expected
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
        stored = set(reg.sorted_members())
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
        assert reg.sorted_members() == [1, 4]

    def test_equality_and_hash(self):
        a = SparseRegister(frozenset({1, 2}), n_q=4)
        b = SparseRegister(np.array([2, 1, 2]), n_q=4)
        assert a == b and hash(a) == hash(b)
        assert a != SparseRegister(frozenset({1, 2}), n_q=5)
        assert a != SparseRegister(frozenset({1, 3}), n_q=4)
        assert a != frozenset({1, 2})

    def test_dump_load_round_trip_from_array(self):
        reg = SparseRegister(np.array([255, 0, 17]), n_q=8)
        assert load_register(dump_register(reg)) == reg

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
        assert dump_register(reg) == "N_Q=2 N_s=0\n"
        assert load_register(dump_register(reg)) == reg


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


class TestRegisterDump:
    def test_round_trip(self):
        reg = SparseRegister(frozenset({3, 1, 200}), n_q=8)
        text = dump_register(reg)
        assert text.splitlines()[0] == "N_Q=8 N_s=3"
        assert load_register(text) == reg

    def test_dump_lists_sorted_indices(self):
        reg = SparseRegister(frozenset({9, 2, 5}), n_q=4)
        assert dump_register(reg).splitlines()[1:] == ["2", "5", "9"]

    def test_malformed_header_rejected(self):
        with pytest.raises(ValidationError):
            load_register("3\n1\n2\n")

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            load_register("N_Q=4 N_s=5\n1\n2\n")
