"""The package names that the frozen benchmark under benchmarks/ relies on.

``benchmarks/traced_cli.py`` wraps functions on ``qmud.harness``,
``qmud.povm``, ``qmud.cli`` and ``SplitMix64``, and ``benchmarks/layers.py``
imports the per-symbol API.  A change that drops or renames one of these
names breaks the benchmark without failing any other test.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"

# Every name benchmarks/traced_cli.py's install() wraps, as layer.attribute.
TRACED = {
    "rng.uniform", "rng.normal", "rng.derive_seed",
    "cdma.correlation_matrix", "cdma.transmit", "cdma.matched_filter",
    "detectors.sud_detect", "detectors.decorrelate_detect", "detectors.mmse_detect",
    "detectors.optimal_detect",
    "registers.enumerate_hypotheses", "registers.quantize_waveform", "registers.pack_basis",
    "povm.detect_user", "povm.measurement_block",
    "cli.scenario_digest", "harness.run_trials", "harness.sweep", "cli.main",
}


def test_traced_cli_wraps_every_name_and_runs(tmp_path):
    trace, out = tmp_path / "trace.json", tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(trace), "--", "run",
         "--config", str(BENCH / "scenarios" / "two_user.json"), "--trials", "20",
         "--seed", "1", "--out", str(out)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("scenario_id,detector,")
    stats = json.loads(trace.read_text())["stats"]
    assert TRACED <= set(stats)
    assert stats["cli.main"]["calls"] == stats["harness.run_trials"]["calls"] == 1


def test_layers_imports(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        layers = importlib.import_module("layers")
        assert callable(layers.microbenchmarks) and callable(layers.build_state)
    finally:
        for name in ("layers", "checks"):
            sys.modules.pop(name, None)
