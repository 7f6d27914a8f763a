#!/usr/bin/env python3
"""Check that the tests still catch every known fault in scripts/mutants.json.

Each catalogue entry names a file under src/, an exact snippet that occurs
once in it, the snippet's replacement, and the test node ids that must fail
on the replaced code.  For every entry this copies src/ to a temporary
directory, applies the replacement there, and runs

    python -m pytest -x <node ids>

from the repository root with PYTHONPATH set to the copy.  An entry is
caught when pytest reports a failed test (exit status 1).  Every node id
must first pass on the unmutated src/, so a caught mutant is the
mutation's doing.  Tests that run ``qmud`` in a child process pin the
repository's own src/, so entries name in-process tests only.

Usage:
    python scripts/run_mutants.py

Exits 0 when every entry is caught, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = Path(__file__).with_name("mutants.json")


def apply(entry: dict, src: Path) -> None:
    """Replace the entry's snippet, which must occur exactly once, in the tree ``src``."""
    path = src / entry["file"]
    text = path.read_text()
    found = text.count(entry["snippet"])
    if found != 1:
        raise ValueError(f"{entry['name']}: snippet occurs {found} times in {entry['file']}")
    path.write_text(text.replace(entry["snippet"], entry["replacement"]))


def run_pytest(tests: list[str], src: Path) -> tuple[int, str]:
    """(exit status, last output line) of ``pytest -x`` on ``tests`` with ``src`` imported."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()


def run(entry: dict) -> tuple[bool, str]:
    """(caught, pytest's last output line) for one entry."""
    with tempfile.TemporaryDirectory(prefix="qmud-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(entry, src)
        status, summary = run_pytest(entry["tests"], src)
    return status == 1, summary


def main() -> int:
    catalogue = json.loads(CATALOGUE.read_text())
    status, summary = run_pytest(sorted({node for entry in catalogue for node in entry["tests"]}),
                                 ROOT / "src")
    print(f"unmutated: {summary}", flush=True)
    if status != 0:
        print("the catalogue's tests must pass on the unmutated code")
        return 1
    survivors = []
    for entry in catalogue:
        caught, summary = run(entry)
        print(f"{'caught' if caught else 'SURVIVED'}  {entry['name']}: {summary}", flush=True)
        if not caught:
            survivors.append(entry["name"])
    if survivors:
        print(f"{len(survivors)} mutant(s) not caught: {', '.join(survivors)}")
        return 1
    print("every mutant caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
