"""Quantum multi-user detection for synchronous DS-CDMA, simulated classically.

Pipeline: chip-level signal synthesis and matched filtering -> classical
baseline detectors -> chip quantization into sparse hypothesis registers ->
three-outcome unambiguous measurements -> per-user receiver decisions ->
seeded Monte Carlo harness and CLI.
"""

from .cdma import (correlation_matrix, matched_filter, noiseless_waveforms, transmit,
                   walsh_hadamard_signatures)
from .config import QuantizerSpec, Scenario, default_amplitude, scenario_digest
from .detectors import (DetectorKind, decorrelate_detect, mlse_objective,
                        mmse_detect, optimal_detect, sud_detect)
from .harness import ALL_DETECTORS, MetricsReport, QmudStats, run_trials, sweep
from .povm import (Decision, MeasurementOutcome, PovmTriple, UserDecision,
                   build_povm, detect_user, measurement_block,
                   outcome_probabilities, sample_outcome, solve_alpha_for_beta,
                   symmetric_gain, confirm_reject_pair)
from .registers import (QubitState, SparseRegister, enumerate_hypotheses, pack_basis,
                        quantize_waveform, reduce_to_qubit, shift_variants)
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"
