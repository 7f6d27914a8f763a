"""Scalar per-pattern register enumeration, the oracle for the vectorized one.

This is the set-building loop that ``enumerate_hypotheses`` used before it
was vectorized, with one change: each pattern's noiseless waveform adds the
users in ascending index order (the own term at its own index), the order
``cdma.noiseless_waveforms`` uses for the transmitter.
"""

import itertools

import numpy as np

from qmud.registers import shift_variants


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
    for own in shift_variants(sig[user], scenario.delays):
        for pattern in itertools.product((-1.0, 1.0), repeat=scenario.K - 1):
            bits = pattern[:user] + (float(bit),) + pattern[user:]
            base = None
            for l, b_l in enumerate(bits):
                term = amp[l] * b_l * (np.array(own) if l == user else sig[l])
                base = term if base is None else base + term
            waves = base[None, :] + offsets
            codes = np.clip(
                np.floor((waves + spec.amplitude) / spec.step).astype(np.int64),
                0, spec.levels - 1)
            members.update((codes @ weights).tolist())
    return members
