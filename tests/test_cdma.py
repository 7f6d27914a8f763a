import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_orthogonal, make_scenario, random_unit_signatures
from qmud import (correlation_matrix, matched_filter, noiseless_waveforms, transmit,
                  walsh_hadamard_signatures)
from qmud.errors import ValidationError
from qmud.rng import SplitMix64


def _random_scenario(seed, K, PG):
    rng = np.random.default_rng(seed)
    return make_scenario(
        K=K, PG=PG,
        signatures=random_unit_signatures(rng, K, PG),
        energies=tuple(rng.uniform(0.2, 4.0, K)),
        gains=tuple(rng.uniform(0.3, 1.5, K)),
    )


class TestCorrelationMatrix:
    def test_worked_two_user_example(self, two_user_scenario):
        R = correlation_matrix(two_user_scenario)
        np.testing.assert_allclose(R, [[1.0, 0.5], [0.5, 1.0]], atol=0)

    def test_orthogonal_signatures_give_identity(self):
        R = correlation_matrix(make_orthogonal(K=4, PG=4))
        np.testing.assert_allclose(R, np.eye(4), atol=1e-15)

    def test_energy_scales_row_and_column(self):
        R = correlation_matrix(make_scenario(energies=(4.0, 1.0)))
        np.testing.assert_allclose(R, [[4.0, 1.0], [1.0, 1.0]], atol=1e-15)

    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_is_exact(self, seed, K, PG):
        R = correlation_matrix(_random_scenario(seed, K, PG))
        assert np.array_equal(R, R.T)

    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_diagonal_is_energy_times_gain_squared(self, seed, K, PG):
        sc = _random_scenario(seed, K, PG)
        R = correlation_matrix(sc)
        expected = np.array(sc.energies) * np.array(sc.gains) ** 2
        np.testing.assert_allclose(np.diag(R), expected, atol=1e-12)


class TestTransmit:
    def test_hand_superposition(self, two_user_scenario):
        chips = transmit(two_user_scenario, (1, -1), SplitMix64(0))
        np.testing.assert_allclose(chips, [0.0, 0.0, 1.0, 0.0], atol=0)

    def test_single_user_is_scaled_signature(self):
        sc = make_scenario(K=1, signatures=((0.5, 0.5, 0.5, 0.5),),
                           energies=(4.0,), gains=(0.5,))
        chips = transmit(sc, (1,), SplitMix64(0))
        np.testing.assert_allclose(chips, np.array([0.5] * 4), atol=0)

    def test_noise_is_reproducible_across_equal_streams(self):
        sc = make_scenario(noise_sigma=0.3)
        a = transmit(sc, (1, 1), SplitMix64(77))
        b = transmit(sc, (1, 1), SplitMix64(77))
        assert np.array_equal(a, b)

    def test_zero_sigma_consumes_same_draws_as_nonzero(self):
        # Stream alignment across noise sweeps relies on this.
        rng_a = SplitMix64(5)
        transmit(make_scenario(noise_sigma=0.0), (1, 1), rng_a)
        rng_b = SplitMix64(5)
        transmit(make_scenario(noise_sigma=0.7), (1, 1), rng_b)
        assert rng_a.next_u64() == rng_b.next_u64()

    def test_wrong_bit_length_rejected(self, two_user_scenario):
        with pytest.raises(ValidationError):
            transmit(two_user_scenario, (1,), SplitMix64(0))

    def test_affine_in_bits_at_fixed_noise_draw(self):
        # Same stream position: waveform differences depend only on bits.
        sc = make_scenario(noise_sigma=0.4)
        diff = transmit(sc, (1, -1), SplitMix64(13)) - transmit(sc, (-1, -1), SplitMix64(13))
        clean = make_scenario(noise_sigma=0.0)
        expected = (transmit(clean, (1, -1), SplitMix64(0))
                    - transmit(clean, (-1, -1), SplitMix64(0)))
        np.testing.assert_allclose(diff, expected, atol=1e-12)


class TestNoiselessWaveforms:
    @pytest.mark.parametrize("seed,K,PG", [(0, 1, 3), (1, 4, 4), (2, 8, 6)])
    def test_batched_rows_equal_single_rows_bitwise(self, seed, K, PG):
        sc = _random_scenario(seed, K, PG)
        amp, sig = sc.amplitude_vector(), sc.signature_matrix()
        patterns = np.array(list(itertools.product((-1.0, 1.0), repeat=K)))
        batch = noiseless_waveforms(amp, sig, patterns)
        assert batch.shape == (2 ** K, PG)
        for row, bits in zip(batch, patterns):
            assert np.array_equal(row, noiseless_waveforms(amp, sig, bits))

    def test_users_are_added_in_ascending_order(self):
        amp = np.array([1.0, 1e-17, -1.0])
        sig = np.ones((3, 1))
        # ((1 + 1e-17) - 1) loses the middle term; another order would keep it.
        assert noiseless_waveforms(amp, sig, [1, 1, 1])[0] == 0.0

    def test_block_of_waveforms_holds_no_per_user_terms(self):
        # A (1024, 12, 16) array of per-user terms would take 12 outputs;
        # adding users one at a time holds the output, one term and the
        # (1024, 12) coefficients.
        amp = np.linspace(0.5, 1.5, 12)
        sig = np.array(walsh_hadamard_signatures(12, 16))
        bits = np.where(np.random.default_rng(0).random((1024, 12)) < 0.5, 1, -1)
        tracemalloc.start()
        try:
            out = noiseless_waveforms(amp, sig, bits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (1024, 16)
        assert peak < 5 * out.nbytes

    def test_noiseless_transmit_is_the_waveform(self):
        sc = _random_scenario(5, 3, 4)
        for bits in itertools.product((-1, 1), repeat=3):
            received = transmit(sc, bits, SplitMix64(0))
            expected = noiseless_waveforms(sc.amplitude_vector(), sc.signature_matrix(), bits)
            assert np.array_equal(received, expected)


class TestScenarioArrays:
    def test_arrays_are_built_once_and_read_only(self, two_user_scenario):
        for method in ("signature_matrix", "amplitude_vector"):
            first = getattr(two_user_scenario, method)()
            assert getattr(two_user_scenario, method)() is first
            assert not first.flags.writeable
        assert np.array_equal(two_user_scenario.signature_matrix(),
                              np.array(two_user_scenario.signatures))


class TestMatchedFilter:
    def test_worked_example(self, two_user_scenario):
        soft = matched_filter((0.0, 0.0, 1.0, 0.0), two_user_scenario)
        np.testing.assert_allclose(soft, [0.5, -0.5], atol=0)

    def test_zero_input_gives_zero_output(self, two_user_scenario):
        soft = matched_filter(np.zeros(4), two_user_scenario)
        assert np.array_equal(soft, np.zeros(2))

    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_rows_are_bit_identical_to_one_matvec_each(self, seed, K, PG):
        # r @ S.T would differ from S @ r in the last bit on most rows.
        sc = _random_scenario(seed, K, PG)
        received = np.random.default_rng(seed).normal(size=(300, PG))
        expected = [sc.amplitude_vector() * (sc.signature_matrix() @ r) for r in received]
        assert matched_filter(received, sc).tolist() == np.array(expected).tolist()
        assert matched_filter(received[0], sc).tolist() == expected[0].tolist()

    def test_rejects_wrong_chip_count(self, two_user_scenario):
        with pytest.raises(ValidationError):
            matched_filter(np.zeros((3, 5)), two_user_scenario)

    def test_linearity(self, two_user_scenario):
        r1 = np.array([0.3, -0.2, 1.1, 0.4])
        r2 = np.array([-1.0, 0.5, 0.2, 0.9])
        lhs = matched_filter(2.0 * r1 + r2, two_user_scenario)
        rhs = 2.0 * matched_filter(r1, two_user_scenario) + matched_filter(r2, two_user_scenario)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("K,PG", [(1, 3), (2, 4), (3, 5), (4, 8)])
    def test_noiseless_pipeline_equals_R_times_bits(self, K, PG):
        sc = _random_scenario(K * 100 + PG, K, PG)
        R = correlation_matrix(sc)
        for bits in itertools.product((-1, 1), repeat=K):
            soft = matched_filter(transmit(sc, bits, SplitMix64(0)), sc)
            np.testing.assert_allclose(soft, R @ np.array(bits), atol=1e-12)


class TestWalshSignatures:
    def test_rows_are_orthonormal(self):
        sig = np.array(walsh_hadamard_signatures(8, 8))
        np.testing.assert_allclose(sig @ sig.T, np.eye(8), atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError):
            walsh_hadamard_signatures(2, 6)

    def test_rejects_too_many_users(self):
        with pytest.raises(ValidationError):
            walsh_hadamard_signatures(5, 4)
