"""The benchmark's own smoke run, over this checkout's sources."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_smoke_run_passes():
    # perfbench calls cli.op_*, LogitStore and the traced bindings by name,
    # so a source change that breaks one of those calls fails here
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
