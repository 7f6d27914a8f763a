"""Scenario configuration: the full description of one experiment.

A ``Scenario`` bundles everything needed to synthesize, receive and detect
one synchronous symbol: user signatures, energies, channel gains, chip
noise level, the chip quantizer, the bounded noise lattice used when
building hypothesis registers, candidate path delays, and the measurement
repetition budget.  Instances are immutable; each builds its signature
matrix and amplitude vector once.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

# CPython's built-in SHA-256 before hashlib, as the stdlib random module
# takes its sha512; scenario_digest gives the reason.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

# Hard cap on register width N_Q = N_ch * PG; keeps basis indices desk-scale.
MAX_REGISTER_BITS = 24

# Unit-norm slack accepted at construction; parse_config re-normalizes first.
_NORM_TOL = 1e-8


def _integer(name: str, value) -> int:
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _sequence(name: str, value) -> tuple:
    """value as a tuple; rejects a scalar, and a str or bytes that would split into characters."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__len__"):
        raise ValidationError(f"{name}: expected a list of numbers, got {value!r}")
    return tuple(value)


def _real(name: str, value, sequence: bool = False):
    """value as a float, or with ``sequence`` as a tuple of floats; never coerces a bool or str."""
    if not sequence:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return tuple(_real(f"{name}[{i}]", v) for i, v in enumerate(_sequence(name, value)))


def check_seed(seed) -> int:
    """The seed as an int; raises ValidationError unless it lies in [0, 2**64)."""
    seed = _integer("seed", seed)
    if not 0 <= seed < 1 << 64:
        raise ValidationError("seed must be an unsigned 64-bit integer")
    return seed


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform mid-rise chip quantizer with saturation.

    ``n_ch`` bits per chip over the symmetric range [-amplitude, +amplitude];
    the step is ``2 * amplitude / 2**n_ch``.
    """

    n_ch: int
    amplitude: float

    def __post_init__(self):
        object.__setattr__(self, "n_ch", _integer("N_ch", self.n_ch))
        object.__setattr__(self, "amplitude", _real("amplitude_A", self.amplitude))
        if not 1 <= self.n_ch <= 8:
            raise ValidationError(f"N_ch must be in 1..8, got {self.n_ch}")
        if not (self.amplitude > 0 and math.isfinite(self.amplitude)):
            raise ValidationError(f"amplitude_A must be positive, got {self.amplitude}")

    @property
    def levels(self) -> int:
        return 1 << self.n_ch

    @property
    def step(self) -> float:
        return 2.0 * self.amplitude / self.levels


@dataclass(frozen=True)
class Scenario:
    """One synchronous DS-CDMA experiment description.

    ``signatures`` holds K unit-norm chip sequences of length PG.  ``gamma``
    is the half-width, in quantizer steps, of the per-chip noise lattice
    enumerated into hypothesis registers.  ``delays`` lists the candidate
    chip shifts of the detected user's own signature.
    """

    K: int
    PG: int
    signatures: tuple[tuple[float, ...], ...]
    energies: tuple[float, ...]
    gains: tuple[float, ...]
    noise_sigma: float
    quantizer: QuantizerSpec
    gamma: int = 0
    delays: tuple[int, ...] = (0,)
    reps_max: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("K", "PG", "gamma", "reps_max", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "signatures", tuple(
            _real(f"signatures[{k}]", sig, sequence=True)
            for k, sig in enumerate(self.signatures)))
        for name in ("energies", "gains"):
            object.__setattr__(self, name, _real(name, getattr(self, name), sequence=True))
        object.__setattr__(self, "noise_sigma", _real("noise_sigma", self.noise_sigma))
        object.__setattr__(self, "delays", tuple(sorted(set(
            _integer(f"delays[{i}]", d) for i, d in enumerate(_sequence("delays", self.delays))))))
        self._validate()
        sig = np.array(self.signatures, dtype=float)
        amp = np.sqrt(np.array(self.energies)) * np.array(self.gains)
        sig.flags.writeable = amp.flags.writeable = False
        object.__setattr__(self, "_signature_matrix", sig)
        object.__setattr__(self, "_amplitude_vector", amp)

    def _validate(self):
        if self.K < 1:
            raise ValidationError(f"K must be >= 1, got {self.K}")
        if self.PG < 1:
            raise ValidationError(f"PG must be >= 1, got {self.PG}")
        if len(self.signatures) != self.K:
            raise ValidationError(
                f"signatures: expected {self.K} sequences, got {len(self.signatures)}")
        for k, sig in enumerate(self.signatures):
            if len(sig) != self.PG:
                raise ValidationError(
                    f"signatures[{k}]: expected {self.PG} chips, got {len(sig)}")
            if not all(math.isfinite(c) for c in sig):
                raise ValidationError(f"signatures[{k}]: non-finite chip")
            norm = math.sqrt(sum(c * c for c in sig))
            if abs(norm - 1.0) > _NORM_TOL:
                raise ValidationError(
                    f"signatures[{k}]: must have unit norm, got {norm!r}")
        if len(self.energies) != self.K:
            raise ValidationError(
                f"energies: expected {self.K} values, got {len(self.energies)}")
        if any(e < 0 or not math.isfinite(e) for e in self.energies):
            raise ValidationError("energies: must be finite and >= 0")
        if len(self.gains) != self.K:
            raise ValidationError(f"gains: expected {self.K} values, got {len(self.gains)}")
        if any(not math.isfinite(a) for a in self.gains):
            raise ValidationError("gains: must be finite")
        # The noise variance sigma**2 must be finite; x * x gives inf where
        # x ** 2 would raise OverflowError.
        variance = self.noise_sigma * self.noise_sigma
        if self.noise_sigma < 0 or not math.isfinite(variance):
            raise ValidationError(
                f"noise_sigma must be >= 0 with a finite square, got {self.noise_sigma}")
        # R's diagonal E_k * a_k**2, as the amplitude vector squares it, and
        # the MMSE detector's E_k * a_k**2 + sigma**2.
        for k, (e, a) in enumerate(zip(self.energies, self.gains)):
            amp = math.sqrt(e) * a
            if not math.isfinite(amp * amp):
                raise ValidationError(
                    f"energies/gains: user {k}'s E * a**2 must be finite, got E={e}, a={a}")
            if not math.isfinite(amp * amp + variance):
                raise ValidationError(
                    f"energies/gains/noise_sigma: user {k}'s E * a**2 + noise_sigma**2 must be"
                    f" finite, got E={e}, a={a}, noise_sigma={self.noise_sigma}")
        if self.gamma < 0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        if not self.delays:
            raise ValidationError("delays: must not be empty")
        if any(d < 0 or d >= self.PG for d in self.delays):
            raise ValidationError(f"delays: each must lie in [0, {self.PG}), got {self.delays}")
        if self.reps_max < 1:
            raise ValidationError(f"reps_max must be >= 1, got {self.reps_max}")
        check_seed(self.seed)
        n_q = self.quantizer.n_ch * self.PG
        if n_q > MAX_REGISTER_BITS:
            raise ValidationError(
                f"N_ch*PG = {n_q} exceeds register cap {MAX_REGISTER_BITS}")

    @property
    def register_bits(self) -> int:
        """Total register width N_Q = N_ch * PG."""
        return self.quantizer.n_ch * self.PG

    def signature_matrix(self) -> np.ndarray:
        """Signatures as a read-only (K, PG) float array, built once."""
        return self._signature_matrix

    def amplitude_vector(self) -> np.ndarray:
        """Per-user symbol amplitudes sqrt(E_k) * a_k as a read-only length-K array."""
        return self._amplitude_vector

    def with_overrides(self, **kwargs) -> "Scenario":
        return replace(self, **kwargs)


def default_amplitude(signatures, energies, gains) -> float:
    """Quantizer half-range: 1.5x the largest achievable noiseless chip.

    The worst case over bit patterns is the per-chip sum of user amplitude
    magnitudes.  Raises if the scenario carries no signal at all.
    """
    sig = np.asarray(signatures, dtype=float)
    amp = np.sqrt(np.asarray(energies, dtype=float)) * np.abs(np.asarray(gains, dtype=float))
    peak = float(np.max(amp @ np.abs(sig)))
    if peak <= 0:
        raise ValidationError(
            "amplitude_A: cannot derive a default from an all-zero signal; set it explicitly")
    return 1.5 * peak


def scenario_digest(scenario: Scenario) -> str:
    """Short stable identifier for a scenario (12 hex chars).

    The first 12 hex digits of the SHA-256 of the scenario's sorted JSON.
    SHA-256 is the same function in every module; it comes from CPython's
    lean built-in module where there is one, because ``hashlib`` loads
    OpenSSL's libcrypto, about 3.7 MB resident.  Imported lazily it would
    still load during the run: the digest is taken for every report, while
    the register bank is alive.
    """
    payload = {
        "K": scenario.K,
        "PG": scenario.PG,
        "signatures": scenario.signatures,
        "energies": scenario.energies,
        "gains": scenario.gains,
        "noise_sigma": scenario.noise_sigma,
        "N_ch": scenario.quantizer.n_ch,
        "amplitude_A": scenario.quantizer.amplitude,
        "gamma": scenario.gamma,
        "delays": scenario.delays,
        "reps_max": scenario.reps_max,
        "seed": scenario.seed,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return sha256(blob).hexdigest()[:12]
