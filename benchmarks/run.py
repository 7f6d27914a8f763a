"""qmud benchmark: trial throughput, set-up time and memory per workload.

    python3 benchmarks/run.py --workload two_user --seed 1 --seconds 30 --trace 0

Each workload runs the ``qmud`` CLI on a scenario kept in
``benchmarks/scenarios``, in a fresh process per call, repeatedly for
``--seconds`` seconds, and checks every CSV it writes (``checks.py``).
With ``--trace 0`` it then times the scenario's set-up through the
package's public functions and prints the end-to-end metrics; with
``--trace 1`` it runs the CLI once untraced and once traced
(``traced_cli.py``), runs the per-layer microbenchmarks (``layers.py``)
and prints the per-layer metrics.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  ``--workload all``
runs every workload in turn and prints one such line per workload.

Operations are (trial, user) slots of the CLI runs.  On a noiseless
workload every round also checks all 2^K x K (bit pattern, user) pairs for
their noiseless waveform's index in the true-bit register; a pair that is
missing is a failed operation (the transmit/register disagreement).  Its
count does not depend on the seed, so the failed share is the same in
every run.

The package is imported from the checkout's ``src`` only; BLAS threads are
pinned to 1 for the benchmark and every process it starts.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("rng", "cdma", "detectors", "registers", "povm", "harness", "cli")


@dataclass(frozen=True)
class Workload:
    scenario: str
    trials: int
    param: str | None = None
    values: tuple = ()

    @property
    def points(self) -> int:
        return len(self.values) if self.param else 1


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "two_user": Workload("two_user.json", trials=4000),
    "nearfar_reps": Workload("nearfar_reps.json", trials=1000, param="reps_max",
                             values=(1, 2, 4, 8, 16)),
    "dense_sweep": Workload("dense_sweep.json", trials=200, param="noise_sigma",
                            values=(0.05, 0.1, 0.15)),
}


def cli_args(w: Workload, scenario: Path, out: Path, seed: int) -> list[str]:
    args = ["sweep", "--param", w.param, "--values", ",".join(str(v) for v in w.values)] \
        if w.param else ["run"]
    return args + ["--config", str(scenario), "--trials", str(w.trials), "--seed", str(seed),
                   "--out", str(out)]


def run_process(argv: list[str], log: Path) -> float:
    """Run one child to completion; return its wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            returncode = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    if returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {returncode}:\n{log.read_text()}")
    return wall


class Run:
    """One benchmark run of one workload: CLI calls, checks and counts."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        import checks
        import layers

        self.checks, self.layers = checks, layers
        self.name, self.w = name, WORKLOADS[name]
        self.seed = seed
        self.out_dir = out_dir
        self.scenario_path = HERE / "scenarios" / self.w.scenario
        self.model = checks.Model.from_json(self.scenario_path.read_text())
        self.scenario = layers.load_scenario(self.scenario_path)
        self.calls: list[tuple[int, str]] = []
        self.trace_doc = None
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        values = self.w.values if self.w.param else (None,)
        self.noiseless = all(self.model.at(self.w.param, v).sigma == 0 for v in values)
        R = layers.correlation_matrix(self.scenario)
        if abs(R - self.model.R).max() > 1e-12:
            self.problems.append("cdma.correlation_matrix: differs from A S S^T A of the JSON")

    def cli_seed(self, call: int) -> int:
        return self.checks.ref_derive_seed(self.seed, call)

    def cli(self, traced: bool = False, seed: int | None = None) -> tuple[float, float, str]:
        """One CLI call; returns (wall s, peak RSS MB, CSV text).

        The peak RSS is that of an untraced call; a traced call reports 0.
        """
        call = len(self.calls)
        seed = self.cli_seed(call) if seed is None else seed
        out = self.out_dir / f"call{call}.csv"
        args = cli_args(self.w, self.scenario_path, out, seed)
        trace_path = out.with_suffix(".trace.json")
        peak_path = out.with_suffix(".peak")
        script, side_file = ("traced_cli.py", trace_path) if traced else ("peak_cli.py", peak_path)
        argv = [sys.executable, str(HERE / script), str(side_file), "--"]
        wall = run_process(argv + args, out.with_suffix(".log"))
        if traced:
            self.trace_doc = json.loads(trace_path.read_text())
        rss = 0.0 if traced else int(peak_path.read_text()) / 1024.0
        text = out.read_text()
        self.calls.append((seed, text))
        return wall, rss, text

    def finish(self, registers=None) -> None:
        """Check every CSV written and count the operations of each round."""
        noiseless = None
        for seed, text in self.calls:
            if self.noiseless:
                table = self.layers.noiseless_membership(self.scenario, registers)
                self.attempted += len(table)
                self.failed += sum(not in_true for in_true, _ in table.values())
                noiseless = (table, {key: reg.n_s for key, reg in registers.items()})
            self.problems += self.checks.check_results(
                text, self.model, trials=self.w.trials, seed=seed, param=self.w.param,
                values=self.w.values, noiseless=noiseless)
            self.attempted += self.w.trials * self.model.K * self.w.points

    def result(self, metrics: dict, units: dict) -> dict:
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                               "BENCHMARK.json")
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics, tracing off.

    ``trials_per_s`` is every trial of the run over the summed wall time of
    its calls, so each second measured weighs the same: ``dense_sweep``
    makes only three or four calls, and the median of so few would follow
    whichever one call the host slowed.
    """
    walls, peaks = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        wall, rss, _ = run.cli()
        walls.append(wall)
        peaks.append(rss)
    setup = run.layers.time_setup(run.scenario)
    registers = run.layers.build_state(run.scenario)[1] if run.noiseless else None
    run.finish(registers)
    trials = run.w.trials * run.w.points * len(walls)
    return {"trials_per_s": trials / sum(walls), "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(peaks)}


def trace(run: Run) -> dict:
    """Per-layer metrics: a traced CLI call between two untraced ones, plus microbenchmarks.

    The untraced calls bracket the traced one, so their mean cancels a
    steady drift of the machine's speed out of the tracing overhead.
    """
    seed = run.cli_seed(0)
    before, _, plain_csv = run.cli(seed=seed)
    traced_wall, _, traced_csv = run.cli(traced=True, seed=seed)
    after, _, after_csv = run.cli(seed=seed)
    plain_wall = (before + after) / 2
    if not plain_csv == traced_csv == after_csv:
        run.problems.append("the three CLI calls with one seed wrote different CSVs")
    stats, observed = run.trace_doc["stats"], run.trace_doc["observed"]

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self, layer_calls = defaultdict(float), defaultdict(int)
    for stat in stats.values():
        layer_self[stat["layer"]] += stat["self_s"]
        layer_calls[stat["layer"]] += stat["calls"]
    trials = run.w.trials * run.w.points
    enumerate_name = "registers.enumerate_hypotheses"
    metrics = {
        "rng.uniforms_per_trial": calls("rng.uniform") / trials,
        "registers.enumerate_s": ratio(stats.get(enumerate_name, {}).get("incl_s", 0.0),
                                       calls(enumerate_name)),
        "registers.builds_per_run": calls(enumerate_name),
        "registers.n_s_mean": statistics.fmean(observed.get(enumerate_name, [0])),
        "povm.blocks_per_call": ratio(calls("povm.measurement_block"), calls("povm.detect_user")),
        "povm.conclusive_ratio": statistics.fmean(observed.get("povm.detect_user", [0])),
        "harness.self_us_per_trial": layer_self["harness"] / trials * 1e6,
        "cli.self_ms": layer_self["cli"] * 1e3,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_pct": 100.0 * (traced_wall - plain_wall) / plain_wall,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
        metrics[f"{layer}.calls"] = layer_calls[layer]

    R, registers = run.layers.build_state(run.scenario)
    micro, problems = run.layers.microbenchmarks(run.scenario, R, registers, run.seed)
    metrics.update(micro)
    run.problems += problems
    run.finish(registers)
    return metrics


def bench(name: str, seed: int, seconds: float, traced: bool, units: dict) -> dict:
    base = ROOT / ".bench_out"
    base.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    try:
        run = Run(name, seed, out_dir)
        metrics = trace(run) if traced else measure(run, seconds)
        result = run.result(metrics, units)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for problem in run.problems:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    print(f"[{name}] seed {seed}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr)
    for key, metric in result["metrics"].items():
        print(f"  {key:28s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into an exception so a stopped run kills its child and
    # removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "qmud" / "__init__.py").is_file():
        print(f"error: no qmud package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import qmud

    if Path(qmud.__file__).resolve().parent != SRC / "qmud":
        print(f"error: imported qmud from {qmud.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = bench(name, args.seed, args.seconds, bool(args.trace), units)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
