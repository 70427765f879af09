"""Every demo script runs to completion and prints, byte for byte, the
output recorded in tests/demo_output/<stem>.txt.

The demos print reports, witnesses and element text, so a change that
alters any of them shows here.  When a change alters the output on
purpose, re-record the file by running the demo and say so in the
change's notes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_output"


def test_the_demos_are_found():
    assert len(DEMOS) == 7
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_text()
