"""The benchmark's own smoke run, and its tracer's bindings, over this
checkout's sources."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import branchdistill

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_bindings_resolve(monkeypatch):
    # every traced binding but these two exists, so a refactor that drops or
    # renames one fails here, in seconds, rather than only in the smoke run
    assert Path(branchdistill.__file__).resolve().parent == ROOT / "src" / "branchdistill"
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    bindings = [b for _, group, _ in tracing.TARGETS for b in group]
    absent = {b for b in bindings if tracing.resolve(b) is None}
    assert absent == {"numerics:backward", "evaluation:forward_batch"}


@pytest.mark.slow
def test_smoke_run_passes():
    # perfbench calls cli.op_*, LogitStore and the traced bindings by name,
    # so a source change that breaks one of those calls fails here
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
