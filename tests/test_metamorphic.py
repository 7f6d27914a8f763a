"""Metamorphic relations of the whole pipeline, from scenario to report.

Power-of-two scaling.  Multiplying every user's amplitude by c = 2**j, by
scaling ``energies`` by c**2 or ``gains`` by c, together with
``amplitude_A`` and ``noise_sigma``, multiplies every waveform, noise
sample, quantizer edge and detector statistic by c.  A power of two scales
every float operation exactly away from overflow and underflow, so each
decision, and so every count of the report, must be unchanged.  A quantizer
or register bank that reads a fixed scale in place of ``amplitude_A``
breaks the relation.

Growing gamma.  Raising ``gamma`` under one seed only widens each
register's noise lattice: a trial's bits, noise, received chip codes and
classical decisions do not read ``gamma``, and every register at gamma
holds its register at a smaller gamma.  So a slot's coverage miss can only
clear as gamma grows, never appear.  Each block runs with noise_sigma at
least 0.2, so that gamma 0 misses some slots.
"""

import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmud.config import parse_config, scenario_document, scenario_from_document
from qmud.harness import _Prepared, _run_block, run_trials
from qmud.registers import ENUMERATION_BUDGET, hypothesis_budget

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


def _gamma_blocks(path):
    """One block of TRIALS at each gamma from 0 up to 3 that the enumeration budget allows."""
    base = _scenario(path)
    base = base.with_overrides(noise_sigma=max(base.noise_sigma, 0.2))
    blocks = []
    for gamma in range(4):
        scenario = base.with_overrides(gamma=gamma)
        if hypothesis_budget(scenario) > ENUMERATION_BUDGET:
            break
        blocks.append(_run_block(_Prepared(scenario), scenario.seed, 0, TRIALS))
    return blocks


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_growing_gamma_only_clears_coverage_misses(path):
    blocks = _gamma_blocks(path)
    assert len(blocks) >= 2 and blocks[0].coverage_miss.any()
    for narrow, wide in zip(blocks, blocks[1:]):
        assert np.array_equal(wide.bits, narrow.bits)
        assert np.array_equal(wide.received_codes, narrow.received_codes)
        for kind, decisions in narrow.decisions.items():
            assert np.array_equal(wide.decisions[kind], decisions)
        assert not np.any(wide.coverage_miss & ~narrow.coverage_miss)
