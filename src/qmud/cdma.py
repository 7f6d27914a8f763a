"""Chip-level synchronous DS-CDMA model.

One-symbol discrete model: user k contributes sqrt(E_k) * a_k * b_k * s_k
to the received chip waveform, plus i.i.d. Gaussian chip noise.  Signatures
are unit-norm, so the continuous-time correlation integrals reduce to plain
chip dot products and the matched-filter bank output is exactly R b + n.
"""

from __future__ import annotations

import numpy as np

from .config import Scenario
from .errors import ValidationError
from .rng import SplitMix64


def walsh_hadamard_signatures(K: int, PG: int) -> tuple[tuple[float, ...], ...]:
    """First K rows of the order-PG Sylvester Hadamard matrix, unit-normalized.

    PG must be a power of two and K <= PG; the rows are mutually orthogonal.
    """
    if PG < 1 or PG & (PG - 1):
        raise ValidationError(f"PG must be a power of two for Walsh signatures, got {PG}")
    if not 1 <= K <= PG:
        raise ValidationError(f"K must be in 1..{PG}, got {K}")
    h = np.array([[1.0]])
    while h.shape[0] < PG:
        h = np.block([[h, h], [h, -h]])
    h /= np.sqrt(PG)
    return tuple(tuple(row) for row in h[:K])


def correlation_matrix(scenario: Scenario) -> np.ndarray:
    """Signature cross-correlation matrix R.

    R[k, l] = sqrt(E_k E_l) * a_k * a_l * <s_k, s_l>.  Built from the upper
    triangle and mirrored, so symmetry is exact.  For unit-norm signatures
    the diagonal is E_k * a_k**2.
    """
    amp = scenario.amplitude_vector()
    sig = scenario.signature_matrix()
    K = scenario.K
    R = np.zeros((K, K))
    for k in range(K):
        for l in range(k, K):
            R[k, l] = amp[k] * amp[l] * float(sig[k] @ sig[l])
            R[l, k] = R[k, l]
    return R


def noiseless_waveforms(amplitudes, signatures, bits) -> np.ndarray:
    """Noiseless chip waveforms sum_k (amp_k b_k) s_k, one per row of bits.

    ``bits`` has shape (..., K) and ``signatures`` (K, PG).  Users are added
    one at a time into one (..., PG) array, in ascending index order, with
    elementwise operations only, never a BLAS product, so a waveform is
    bit-identical however many rows are computed at once.
    The transmitter and the register enumeration both build their waveforms
    here, so they agree on which side of a quantizer edge a chip falls.
    """
    coef = np.asarray(amplitudes) * np.asarray(bits, dtype=float)
    total = coef[..., 0, None] * signatures[0]
    for k in range(1, len(signatures)):
        total += coef[..., k, None] * signatures[k]
    return total


def transmit(scenario: Scenario, bits, rng: SplitMix64) -> np.ndarray:
    """Received chip waveform for one symbol.

    r[n] = sum_k sqrt(E_k) a_k b_k s_k[n] + sigma * z[n].  Exactly PG
    standard-normal draws are consumed even when sigma is zero, so streams
    stay aligned across noise-level sweeps.
    """
    bits = np.asarray(bits, dtype=float)
    if bits.shape != (scenario.K,):
        raise ValidationError(f"bits: expected length {scenario.K}, got {bits.shape}")
    clean = noiseless_waveforms(scenario.amplitude_vector(), scenario.signature_matrix(), bits)
    noise = np.array([rng.normal() for _ in range(scenario.PG)])
    return clean + scenario.noise_sigma * noise


def matched_filter(received, scenario: Scenario) -> np.ndarray:
    """Matched-filter bank soft outputs b~_k = sqrt(E_k) a_k <r, s_k>.

    ``received`` has shape (..., PG), one waveform per row.  S is broadcast
    into one matrix-vector product per row, so a row's outputs are
    bit-identical to ``S @ r`` for that row alone, however many rows are
    filtered at once; ``r @ S.T`` would differ in the last bit.
    """
    received = np.asarray(received, dtype=float)
    if received.shape[-1:] != (scenario.PG,):
        raise ValidationError(f"received: expected length {scenario.PG}, got {received.shape}")
    products = np.matmul(scenario.signature_matrix(), received[..., None])
    return scenario.amplitude_vector() * products[..., 0]
