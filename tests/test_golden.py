"""Byte-for-byte CLI output against frozen golden CSVs.

Each case runs one ``qmud`` command on a scenario stored next to its CSV
in ``tests/golden/``.  Together they cover a long ``run``, a ``run`` one
trial past a 1024-trial block, a sweep over every sweepable parameter,
own-signature delays with a noise lattice, the noiseless near-far
``reps_max`` sweep with and without a delay-2 own-signature box, and the
K=8 Walsh scenario whose bank keys fill all 32 bits (N_Q + K = 24 + 8).
Any change to draws, quantized indices, registers, detectors or CSV
formatting shows up here.

No CLI scenario sends rows to the optimal search's exact fallback: the
matched-filter noise is colored by R, and the filter settles such rows on
its own.  So the fallback is pinned by ``detect_rows``' decisions on an
ill-conditioned set of rows, frozen in ``ill_conditioned_k6.csv``.
"""

from pathlib import Path

import pytest

from conftest import ill_conditioned_rows, spy_exact_search
from qmud import detectors
from qmud.cli import main
from qmud.harness import ALL_DETECTORS

GOLDEN = Path(__file__).parent / "golden"

# name -> (scenario JSON in GOLDEN, CLI arguments without --config/--out)
CASES = {
    "two_user_run": ("two_user.json", ["run", "--trials", "2000", "--seed", "7"]),
    "two_user_run_1025": ("two_user.json", ["run", "--trials", "1025", "--seed", "7"]),
    "two_user_noise_sigma": ("two_user.json", [
        "sweep", "--param", "noise_sigma", "--values", "0.1,0.2,0.3",
        "--trials", "800", "--seed", "7"]),
    "two_user_reps_max": ("two_user.json", [
        "sweep", "--param", "reps_max", "--values", "1,3,6",
        "--trials", "800", "--seed", "7"]),
    "two_user_gamma": ("two_user.json", [
        "sweep", "--param", "gamma", "--values", "0,1,2",
        "--trials", "800", "--seed", "7"]),
    "two_user_N_ch": ("two_user.json", [
        "sweep", "--param", "N_ch", "--values", "2,3,4",
        "--trials", "800", "--seed", "7"]),
    "delays_k2pg4_run": ("delays_k2pg4.json", ["run", "--trials", "600", "--seed", "11"]),
    "nearfar_reps_max": ("nearfar_reps.json", [
        "sweep", "--param", "reps_max", "--values", "1,2,4,8,16",
        "--trials", "300", "--seed", "11"]),
    "nearfar_delays_reps_max": ("nearfar_delays.json", [
        "sweep", "--param", "reps_max", "--values", "1,4,16",
        "--trials", "300", "--seed", "5"]),
    "dense_sweep_noise_sigma": ("dense_sweep.json", [
        "sweep", "--param", "noise_sigma", "--values", "0.05,0.1,0.15",
        "--trials", "200", "--seed", "7"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    scenario, args = CASES[name]
    out = tmp_path / f"{name}.csv"
    assert main(args + ["--config", str(GOLDEN / scenario), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def _decision_lines(decisions) -> list[str]:
    """One CSV line per row: each detector's bits as a string of + and -."""
    bits = [["".join("+" if b > 0 else "-" for b in row) for row in decisions[kind].tolist()]
            for kind in ALL_DETECTORS]
    return [",".join(k.value for k in ALL_DETECTORS)] + [",".join(row) for row in zip(*bits)]


def test_ill_conditioned_decisions_match_golden(monkeypatch):
    soft, R = ill_conditioned_rows()
    seen = spy_exact_search(monkeypatch)
    decisions = detectors.detect_rows(soft, R, 0.09)
    assert seen  # the golden reaches the exact search
    expected = (GOLDEN / "ill_conditioned_k6.csv").read_text()
    assert "\n".join(_decision_lines(decisions)) + "\n" == expected
