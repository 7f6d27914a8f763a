"""Run the qmud CLI and record its own peak resident memory.

    python3 benchmarks/peak_cli.py PEAK_OUT -- run --config ... --out ...

Calls ``qmud.cli.main`` on the remaining arguments, then writes the
process's ``VmHWM`` (kB) from ``/proc/self/status`` to PEAK_OUT.  The
parent's ``wait4`` rusage cannot serve here: a child started by
``subprocess`` begins with the parent's high-water mark as its
``ru_maxrss``, so it would never read below the benchmark's own footprint.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import qmud.cli as cli

    code = cli.main(argv[2:])
    status = Path("/proc/self/status").read_text()
    Path(argv[0]).write_text(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
