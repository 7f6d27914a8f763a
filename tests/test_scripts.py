"""Smoke runs of the example scripts under scripts/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_receiver_demo_reports_every_detector_and_the_receiver():
    trials, K = 200, 2  # scenarios/two_user.json has two users
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "receiver_demo.py"), "--trials", str(trials)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for kind in ("sud", "decorrelator", "mmse", "optimal"):
        assert sum(re.fullmatch(rf"{kind}\s+\d+\s+[0-9.]+", line) is not None
                   for line in lines) == 1, kind
    category = re.compile(r"  (\S.*?)\s+(\d+)")
    categories = dict(m.groups() for m in map(category.fullmatch, lines) if m)
    assert list(categories) == ["correct", "wrong bits", "no-message", "ambiguous",
                                "inconclusive", "coverage misses"]
    assert categories["wrong bits"] == "0"
    assert sum(map(int, categories.values())) == K * trials
