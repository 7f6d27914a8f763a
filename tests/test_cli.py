import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmud import config, outcome_probabilities, QubitState, build_povm, solve_alpha_for_beta
from qmud.cli import main, parse_config, write_csv
from qmud.errors import ParseError, ValidationError
from qmud.harness import run_trials

MINIMAL_ONE_USER = {
    "K": 1, "PG": 2,
    "signatures": [[0.7071067811865476, 0.7071067811865476]],
    "energies": [1.0],
    "gains": [1.0],
    "noise_sigma": 0.0,
    "N_ch": 2,
    "gamma": 0,
    "reps_max": 1,
    "seed": 0,
}

GOLDEN_CONFIG = {
    "K": 2, "PG": 2,
    "signatures": [[1.0, 0.0], [0.5, math.sqrt(0.75)]],
    "energies": [1.0, 1.0],
    "gains": [1.0, 1.0],
    "noise_sigma": 0.28125,
    "N_ch": 3,
    "amplitude_A": 2.25,
    "gamma": 1,
    "reps_max": 6,
    "seed": 42,
}

# Frozen output of `run` on GOLDEN_CONFIG with trials=60, seed=42.
GOLDEN_CSV = """scenario_id,detector,param_name,param_value,trials,bit_errors,ber,correct,no_message,ambiguous,inconclusive,coverage_miss,mean_reps,seed
1b94fb75cb2d,sud,,,60,3,0.025,117,0,0,0,0,,42
1b94fb75cb2d,decorrelator,,,60,1,0.00833333,119,0,0,0,0,,42
1b94fb75cb2d,mmse,,,60,1,0.00833333,119,0,0,0,0,,42
1b94fb75cb2d,optimal,,,60,0,0,120,0,0,0,0,,42
1b94fb75cb2d,qmud,,,60,0,0,12,0,0,106,2,5.83333,42
"""


ROOT = Path(__file__).resolve().parent.parent
BENCH_SCENARIOS = sorted((ROOT / "benchmarks" / "scenarios").glob("*.json"))


def _doc(**overrides):
    doc = dict(MINIMAL_ONE_USER)
    doc.update(overrides)
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal_document_gets_default_delays(self):
        sc = parse_config(_doc())
        assert sc.delays == (0,)
        assert sc.K == 1 and sc.PG == 2

    def test_amplitude_defaults_to_scaled_peak(self):
        sc = parse_config(_doc())
        # Peak noiseless chip is 1/sqrt(2); default half-range is 1.5x that.
        assert sc.quantizer.amplitude == pytest.approx(1.5 / math.sqrt(2), abs=1e-12)

    def test_signature_count_mismatch_names_key(self):
        with pytest.raises(ValidationError, match="signatures"):
            parse_config(_doc(K=2))

    @pytest.mark.parametrize("key", ["energies", "gains"])
    def test_wrong_length_message_does_not_depend_on_amplitude(self, key):
        messages = []
        for extra in ({}, {"amplitude_A": 2.0}):
            with pytest.raises(ValidationError) as info:
                parse_config(_doc(**{key: [1.0, 1.0]}, **extra))
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"{key}: expected 1 values, got 2")

    def test_zero_amplitude_is_rejected_not_defaulted(self):
        with pytest.raises(ValidationError, match="must be positive"):
            parse_config(_doc(amplitude_A=0))

    def test_register_width_cap(self):
        with pytest.raises(ValidationError, match="24"):
            parse_config(_doc(PG=10, N_ch=3,
                              signatures=[[1.0] + [0.0] * 9]))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="snr"):
            parse_config(_doc(snr=3.0))

    def test_missing_key_rejected(self):
        doc = dict(MINIMAL_ONE_USER)
        del doc["energies"]
        with pytest.raises(ValidationError, match="energies"):
            parse_config(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_config("{not json")
        with pytest.raises(ParseError):
            parse_config("[1, 2]")

    def test_non_numeric_values_become_validation_errors(self):
        with pytest.raises(ValidationError):
            parse_config(_doc(signatures=[["a", "b"]]))
        with pytest.raises(ValidationError):
            parse_config(_doc(reps_max="many"))

    def test_off_norm_signature_is_renormalized_with_warning(self):
        with pytest.warns(UserWarning, match="re-normalized"):
            sc = parse_config(_doc(signatures=[[1.0, 1.0]]))
        assert sum(c * c for c in sc.signatures[0]) == pytest.approx(1.0, abs=1e-12)

    def test_integral_floats_read_as_integers(self):
        whole = json.loads(_doc(gamma=1, delays=[0, 1]))
        floats = dict(whole, K=1.0, PG=2.0, N_ch=2.0, gamma=1.0, delays=[0.0, 1.0],
                      reps_max=1.0, seed=0.0)
        sc = parse_config(json.dumps(floats))
        assert sc == parse_config(json.dumps(whole))
        assert all(type(n) is int for n in (sc.K, sc.PG, sc.quantizer.n_ch, sc.gamma,
                                            sc.reps_max, sc.seed, *sc.delays))

    def test_round_trip_of_defaults(self):
        sc = parse_config(_doc())
        echo = {
            "K": sc.K, "PG": sc.PG,
            "signatures": [list(s) for s in sc.signatures],
            "energies": list(sc.energies), "gains": list(sc.gains),
            "noise_sigma": sc.noise_sigma, "N_ch": sc.quantizer.n_ch,
            "amplitude_A": sc.quantizer.amplitude, "gamma": sc.gamma,
            "delays": list(sc.delays), "reps_max": sc.reps_max, "seed": sc.seed,
        }
        assert parse_config(json.dumps(echo)) == sc


class TestWriteCsv:
    def test_empty_report_list_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        write_csv([], out)
        assert out.read_text().splitlines() == [GOLDEN_CSV.splitlines()[0]]

    def test_report_gives_four_detector_rows_then_qmud(self, tmp_path):
        sc = parse_config(_doc())
        report = run_trials(sc, trials=5, master_seed=0)
        out = tmp_path / "five.csv"
        write_csv([report], out)
        lines = out.read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == [
            "sud", "decorrelator", "mmse", "optimal", "qmud"]

    def test_round_trip_recovers_counts(self, tmp_path):
        sc = parse_config(json.dumps(GOLDEN_CONFIG))
        report = run_trials(sc, trials=30, master_seed=7)
        out = tmp_path / "rt.csv"
        write_csv([report], out)
        with open(out, newline="") as fh:
            rows = {row["detector"]: row for row in csv.DictReader(fh)}
        q = report.qmud
        assert int(rows["qmud"]["correct"]) == q.correct
        assert int(rows["qmud"]["inconclusive"]) == q.inconclusive
        assert int(rows["qmud"]["coverage_miss"]) == q.coverage_miss
        assert float(rows["qmud"]["mean_reps"]) == pytest.approx(q.mean_reps, rel=1e-5)
        from qmud import DetectorKind
        for kind in DetectorKind:
            assert int(rows[kind.value]["bit_errors"]) == report.detector_bit_errors[kind]

    def test_golden_file(self, tmp_path):
        sc = parse_config(json.dumps(GOLDEN_CONFIG))
        report = run_trials(sc, trials=60, master_seed=42)
        out = tmp_path / "golden.csv"
        write_csv([report], out)
        assert out.read_text() == GOLDEN_CSV


class TestMainExitCodes:
    def _write_config(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_happy_path_run(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, MINIMAL_ONE_USER)
        out = tmp_path / "r.csv"
        assert main(["run", "--config", cfg, "--trials", "10",
                     "--seed", "7", "--out", str(out)]) == 0
        assert out.exists()
        assert "scenario" in capsys.readouterr().out

    def test_no_arguments_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.csv")]) == 1

    def test_invalid_config_contents(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "r.csv")]) == 1

    def test_validation_failure(self, tmp_path):
        doc = dict(MINIMAL_ONE_USER, N_ch=30)
        cfg = self._write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 1

    @pytest.mark.parametrize("override", [
        {"N_ch": 3.9}, {"gamma": True}, {"reps_max": 6.5}, {"delays": [0.7]}])
    def test_non_integral_counts_rejected(self, tmp_path, override):
        cfg = self._write_config(tmp_path, dict(GOLDEN_CONFIG, **override))
        assert main(["run", "--config", cfg, "--trials", "1",
                     "--out", str(tmp_path / "r.csv")]) == 1

    @pytest.mark.parametrize("field,override", [
        ("energies", {"energies": "11"}),
        ("noise_sigma", {"noise_sigma": "0.1"}),
        ("noise_sigma", {"noise_sigma": True}),
        ("gains", {"gains": [True, 1]}),
        ("amplitude_A", {"amplitude_A": "2.0"}),
        ("energies", {"energies": 1.0}),
        ("delays", {"delays": 0}),
        ("delays", {"delays": "1"}),
    ])
    def test_non_real_values_rejected(self, tmp_path, capsys, field, override):
        cfg = self._write_config(tmp_path, dict(GOLDEN_CONFIG, **override))
        assert main(["run", "--config", cfg, "--trials", "1",
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("noise_sigma,command", [
        (1e200, ["run"]),
        (0.28125, ["sweep", "--param", "noise_sigma", "--values", "0.1,1e160"])])
    def test_noise_sigma_with_an_infinite_square_rejected(self, tmp_path, capsys,
                                                           noise_sigma, command):
        # 1e200 ** 2 and 1e160 ** 2 overflow a float.
        cfg = self._write_config(tmp_path, dict(GOLDEN_CONFIG, noise_sigma=noise_sigma))
        out = tmp_path / "r.csv"
        assert main([*command, "--config", cfg, "--trials", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "noise_sigma" in err
        assert not out.exists()

    def test_unknown_sweep_parameter(self, tmp_path):
        cfg = self._write_config(tmp_path, MINIMAL_ONE_USER)
        assert main(["sweep", "--config", cfg, "--param", "bogus",
                     "--values", "1,2", "--out", str(tmp_path / "s.csv")]) == 1

    def test_runtime_budget_error_maps_to_two(self, tmp_path):
        doc = dict(MINIMAL_ONE_USER, PG=4, gamma=20,
                   signatures=[[0.5, 0.5, 0.5, 0.5]])
        cfg = self._write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--trials", "2",
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_trials_and_seed_overrides(self, tmp_path):
        cfg = self._write_config(tmp_path, GOLDEN_CONFIG)
        out = tmp_path / "golden.csv"
        assert main(["run", "--config", cfg, "--trials", "60",
                     "--seed", "42", "--out", str(out)]) == 0
        assert out.read_text() == GOLDEN_CSV

    SEED_COMMANDS = [["run"], ["sweep", "--param", "noise_sigma", "--values", "0,0.1"]]

    @pytest.mark.parametrize("command", SEED_COMMANDS)
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_out_of_range_seed_rejected(self, tmp_path, capsys, command, seed):
        cfg = self._write_config(tmp_path, MINIMAL_ONE_USER)
        out = tmp_path / "r.csv"
        assert main([*command, "--config", cfg, "--trials", "2", "--seed", seed,
                     "--out", str(out)]) == 1
        assert "seed must be an unsigned 64-bit integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", SEED_COMMANDS)
    @pytest.mark.parametrize("seed", ["0", "18446744073709551615"])
    def test_seed_range_ends_accepted(self, tmp_path, command, seed):
        # The override is the master seed only: the scenario id still
        # hashes the JSON's seed.
        cfg = self._write_config(tmp_path, dict(MINIMAL_ONE_USER, seed=5))
        tables = []
        for extra in (["--seed", seed], []):
            out = tmp_path / "r.csv"
            assert main([*command, "--config", cfg, "--trials", "2", *extra,
                         "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                tables.append(list(csv.DictReader(fh)))
        assert [r["scenario_id"] for r in tables[0]] == [r["scenario_id"] for r in tables[1]]
        assert {r["seed"] for r in tables[0]} == {seed}

    @pytest.mark.parametrize("command", [
        ["sweep", "--param", "noise_sigma", "--values", ","],
        ["sweep", "--param", "noise_sigma", "--values", " "],
        ["sweep", "--param", "noise_sigma", "--values", "0.1,,0.2"],
        ["sweep", "--param", "noise_sigma", "--values", "0.1,"],
        ["povm-table", "--ns", ",", "--beta", "0"],
        ["povm-table", "--ns", "2", "--beta", ","],
        ["povm-table", "--ns", "2,", "--beta", "0"]])
    def test_empty_number_list_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "s.csv"
        extra = ["--config", self._write_config(tmp_path, MINIMAL_ONE_USER)] \
            if command[0] == "sweep" else []
        assert main([*command, *extra, "--out", str(out)]) == 1
        assert "expected at least one number" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_writes_param_columns(self, tmp_path):
        cfg = self._write_config(tmp_path, MINIMAL_ONE_USER)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg, "--param", "noise_sigma",
                     "--values", "0,0.01", "--trials", "5", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["param_name"] for r in rows} == {"noise_sigma"}
        assert {r["param_value"] for r in rows} == {"0", "0.01"}


class TestPovmTable:
    def test_rows_match_analytic_probabilities(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["povm-table", "--ns", "1,2,4", "--beta", "0,0.5,1",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 18  # 3 populations x 3 betas x 2 states
        for row in rows:
            n_s, beta = int(row["n_s"]), float(row["beta"])
            alpha = solve_alpha_for_beta(beta, n_s)
            assert float(row["alpha"]) == pytest.approx(alpha, abs=1e-6)
            povm = build_povm(alpha, beta, n_s)
            state = (QubitState.absent() if row["state"] == "absent"
                     else QubitState.present(n_s))
            p1, p2, p3 = outcome_probabilities(povm, state)
            assert float(row["p1"]) == pytest.approx(p1, abs=1e-6)
            assert float(row["p2"]) == pytest.approx(p2, abs=1e-6)
            assert float(row["p3"]) == pytest.approx(p3, abs=1e-6)

    def test_bad_beta_grid_rejected(self, tmp_path):
        assert main(["povm-table", "--ns", "2", "--beta", "0,2",
                     "--out", str(tmp_path / "t.csv")]) == 1

    def test_unwritable_output_maps_to_two(self, tmp_path):
        assert main(["povm-table", "--ns", "2", "--beta", "0",
                     "--out", str(tmp_path / "missing" / "t.csv")]) == 2

    def test_bad_number_list(self, tmp_path):
        assert main(["povm-table", "--ns", "x", "--beta", "0",
                     "--out", str(tmp_path / "t.csv")]) == 1


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout's package; return its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestScenarioDigest:
    def test_cli_run_loads_no_openssl(self, tmp_path):
        if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
            pytest.skip("no lean SHA-256 module in this Python")
        args = ["run", "--config", str(BENCH_SCENARIOS[0]), "--trials", "50", "--seed", "1",
                "--out", str(tmp_path / "out.csv")]
        _run_python(f"""
import sys
from qmud.cli import main
assert main({args!r}) == 0
assert "_hashlib" not in sys.modules, "the run loaded OpenSSL's _hashlib"
""")

    @pytest.mark.parametrize("blocked", [(), ("_sha2",), ("_sha2", "_sha256")])
    def test_every_sha256_source_gives_the_hashlib_digest(self, blocked, monkeypatch):
        # Blocking the lean modules walks config's import fallbacks down to
        # hashlib, so one Python runs every branch.
        paths = [str(p) for p in BENCH_SCENARIOS]
        out = _run_python(f"""
import sys
for name in {blocked!r}:
    sys.modules[name] = None
from pathlib import Path
from qmud.cli import parse_config
from qmud.config import scenario_digest, sha256
print(sha256.__module__)
for path in {paths!r}:
    print(scenario_digest(parse_config(Path(path).read_text())))
""").split()
        assert out[0] not in blocked
        monkeypatch.setattr(config, "sha256", hashlib.sha256)
        assert len(paths) == 3 and out[1:] == [
            config.scenario_digest(parse_config(Path(p).read_text())) for p in paths]
