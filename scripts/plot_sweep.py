#!/usr/bin/env python3
"""Plot a sweep results CSV: BER per detector plus quantum decision rates.

Example:
    qmud sweep --config scenarios/two_user.json --param noise_sigma \
        --values 0,0.1,0.2,0.3 --trials 2000 --out sweep.csv
    python scripts/plot_sweep.py sweep.csv --out sweep.png
"""

import argparse
import csv
import sys
from collections import defaultdict


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("csv_path")
    parser.add_argument("--out", default="sweep.png")
    args = parser.parse_args()

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib is required: pip install matplotlib")

    series = defaultdict(list)
    quantum = defaultdict(list)
    with open(args.csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            x = float(row["param_value"]) if row["param_value"] else 0.0
            if row["detector"] == "qmud":
                total = sum(int(row[c]) for c in ("correct", "no_message", "ambiguous",
                                                  "inconclusive", "coverage_miss",
                                                  "bit_errors"))
                quantum["correct"].append((x, int(row["correct"]) / total))
                quantum["inconclusive"].append((x, int(row["inconclusive"]) / total))
            else:
                series[row["detector"]].append((x, float(row["ber"])))

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    for name, points in sorted(series.items()):
        points.sort()
        ax1.plot([p[0] for p in points], [p[1] for p in points], marker="o", label=name)
    ax1.set_xlabel("swept value")
    ax1.set_ylabel("BER")
    ax1.set_title("classical detectors")
    ax1.legend()

    for name, points in sorted(quantum.items()):
        points.sort()
        ax2.plot([p[0] for p in points], [p[1] for p in points], marker="s", label=name)
    ax2.set_xlabel("swept value")
    ax2.set_ylabel("fraction of user-slots")
    ax2.set_title("quantum receiver")
    ax2.legend()

    fig.tight_layout()
    fig.savefig(args.out, dpi=120)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
