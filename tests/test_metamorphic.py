"""Metamorphic relations of the whole pipeline, from scenario to report.

Power-of-two scaling.  Multiplying every user's amplitude by c = 2**j, by
scaling ``energies`` by c**2 or ``gains`` by c, together with
``amplitude_A`` and ``noise_sigma``, multiplies every waveform, noise
sample, quantizer edge and detector statistic by c.  A power of two scales
every float operation exactly away from overflow and underflow, so each
decision, and so every count of the report, must be unchanged.  A quantizer
or register bank that reads a fixed scale in place of ``amplitude_A``
breaks the relation.
"""

import functools
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmud.config import parse_config, scenario_document, scenario_from_document
from qmud.harness import run_trials

SCENARIOS = sorted((Path(__file__).parent / "golden").glob("*.json"))
TRIALS = 300


def _counts(scenario):
    report = run_trials(scenario, trials=TRIALS, master_seed=scenario.seed)
    return report.detector_bit_errors, report.qmud


@functools.cache
def _scenario(path):
    return parse_config(path.read_text())


@functools.cache
def _base_counts(path):
    return _counts(_scenario(path))


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
@settings(max_examples=5, deadline=None)
@given(j=st.integers(-4, 4), scaled=st.sampled_from(["energies", "gains"]))
@example(j=3, scaled="gains")
@example(j=-2, scaled="energies")
def test_power_of_two_scaling_keeps_every_count(path, j, scaled):
    c = 2.0 ** j
    doc = scenario_document(_scenario(path))
    factor = c * c if scaled == "energies" else c
    doc[scaled] = tuple(v * factor for v in doc[scaled])
    doc["amplitude_A"] *= c
    doc["noise_sigma"] *= c
    assert _counts(scenario_from_document(doc)) == _base_counts(path)
