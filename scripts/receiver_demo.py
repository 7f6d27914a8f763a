#!/usr/bin/env python3
"""Compare the quantum receiver against the classical bank on one scenario.

Runs a two-user, cross-correlation-0.5 setup at moderate noise and prints
per-detector bit error rates next to the quantum receiver's decision
categories.  The point to observe: classical detectors trade errors for
decisions, while the quantum receiver never decides wrongly -- it burns
its repetition budget instead.
"""

import argparse
import time
from pathlib import Path

from qmud.cli import parse_config
from qmud.harness import ALL_DETECTORS, run_trials

DEFAULT_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "two_user.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(DEFAULT_SCENARIO))
    parser.add_argument("--trials", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    scenario = parse_config(Path(args.config).read_text())
    seed = args.seed if args.seed is not None else scenario.seed
    start = time.perf_counter()
    report = run_trials(scenario, trials=args.trials, master_seed=seed)
    elapsed = time.perf_counter() - start

    bits = args.trials * scenario.K
    print(f"scenario {report.scenario_id}: K={scenario.K}, PG={scenario.PG}, "
          f"sigma={scenario.noise_sigma}, {args.trials} trials in {elapsed:.1f}s\n")
    print(f"{'detector':<14}{'bit errors':>12}{'BER':>12}")
    for kind in ALL_DETECTORS:
        errors = report.detector_bit_errors[kind]
        print(f"{kind.value:<14}{errors:>12}{report.ber(kind):>12.4f}")

    q = report.qmud
    print(f"\nquantum receiver over {bits} user-slots "
          f"(reps_max={scenario.reps_max}, mean reps {q.mean_reps:.2f}):")
    print(f"  correct           {q.correct}")
    print(f"  wrong bits        {q.false_decisions}")
    print(f"  no-message        {q.no_message}")
    print(f"  ambiguous         {q.ambiguous}")
    print(f"  inconclusive      {q.inconclusive}")
    print(f"  coverage misses   {q.coverage_miss}")


if __name__ == "__main__":
    main()
