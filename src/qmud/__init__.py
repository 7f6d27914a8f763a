"""Quantum multi-user detection for synchronous DS-CDMA, simulated classically.

Pipeline: chip-level signal synthesis and matched filtering -> classical
baseline detectors -> chip quantization into sparse hypothesis registers ->
three-outcome unambiguous measurements -> per-user receiver decisions ->
seeded Monte Carlo harness and CLI.

The package re-exports nothing; import each name from its defining module.
``qmud run`` and ``qmud sweep`` never load the operator model, ``qmud.povm``.
"""

__version__ = "0.1.0"
