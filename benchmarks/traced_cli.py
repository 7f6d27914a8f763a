"""Run the qmud CLI with every layer call timed, from outside the package.

    python3 benchmarks/traced_cli.py TRACE_OUT.json -- run --config ... --out ...

Wraps the functions that ``qmud.harness`` and ``qmud.cli`` call into each
layer (and the SplitMix64 draw methods, which every layer shares), runs
``qmud.cli.main`` on the remaining arguments, and writes one JSON object
with each wrapped function's layer, call count, inclusive and self time.
A span's self time is its duration minus that of the wrapped calls inside
it, so each layer's self times add up to the traced run's busy time.
Nothing inside the package is edited; the wrappers replace module
attributes in this process only.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.observed: dict[str, list] = {}
        self._children = [0.0]

    def wrap(self, layer: str, name: str, fn, observe=None):
        stat = self.stats.setdefault(name, {"layer": layer, "calls": 0, "incl_s": 0.0,
                                            "self_s": 0.0})
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = children.pop()
                children[-1] += elapsed
                stat["calls"] += 1
                stat["incl_s"] += elapsed
                stat["self_s"] += elapsed - inner
            if observe is not None:
                self.observed.setdefault(name, []).append(observe(result))
            return result

        return traced

    def patch(self, module, layer: str, attr: str, observe=None):
        name = f"{layer}.{attr}"
        setattr(module, attr, self.wrap(layer, name, getattr(module, attr), observe))


def install(tracer: Tracer):
    import qmud.cli as cli
    import qmud.harness as harness
    import qmud.povm as povm
    from qmud.rng import SplitMix64

    for attr in ("uniform", "normal"):
        tracer.patch(SplitMix64, "rng", attr)
    tracer.patch(harness, "rng", "derive_seed")
    for attr in ("correlation_matrix", "transmit", "matched_filter"):
        tracer.patch(harness, "cdma", attr)
    for attr in ("sud_detect", "decorrelate_detect", "mmse_detect", "optimal_detect"):
        tracer.patch(harness, "detectors", attr)
    tracer.patch(harness, "registers", "enumerate_hypotheses", observe=lambda reg: reg.n_s)
    for attr in ("quantize_waveform", "pack_basis"):
        tracer.patch(harness, "registers", attr)
    tracer.patch(harness, "povm", "detect_user",
                 observe=lambda dec: dec.kind is not povm.Decision.INCONCLUSIVE)
    # Counts the receiver's blocks; detect_user looks it up in its module.
    tracer.patch(povm, "povm", "measurement_block")
    tracer.patch(harness, "cli", "scenario_digest")
    for attr in ("run_trials", "sweep"):
        tracer.patch(cli, "harness", attr)
    tracer.patch(cli, "cli", "main")
    return cli


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    cli = install(tracer)
    code = cli.main(argv[2:])
    with open(argv[0], "w") as fh:
        json.dump({"stats": tracer.stats, "observed": tracer.observed}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
