#!/usr/bin/env python3
"""Benchmark of the branchdistill pipeline, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 60 --trace 0

Workloads (defined, each with the reason it was chosen, in workloads.py):
``pipeline``, ``ablate_distill`` and ``inference``. BENCHMARK.json lists
``pipeline`` and ``inference``: on a shared two-core host the machine's
speed drifts over tens of seconds, and three workloads would not leave
time for runs long enough to average that out. ``ablate_distill`` runs by
name. For ``--seconds`` (and at least three rounds) a run repeats rounds
of one set-up pass and one timed iteration, and reports the medians of
their times. Only the ``cli.op_*`` stage calls the benchmark issues are
timed.

``--trace 0`` installs no wrappers and prints the end-to-end metrics of
BENCHMARK.json. ``--trace 1`` alternates untraced and traced iterations and
prints the per-layer metrics: stage and layer times and counts per timed
iteration, each layer's time per set-up pass (``setup.*``), output quality
(``quality.*``: reported, not bounded, since models this small do not
converge and their quality varies widely from seed to seed), and
``trace.overhead_s`` (traced minus untraced iteration time).

Every pass checks its outputs; ``attempted`` and ``failed`` in the result
count those checks. A line before the result gives the environment, output
quality, failed checks and a SHA-256 over the iteration's output artifacts,
which is equal across runs of one seed while outputs stay bit-identical.
The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ROUNDS = 3


class SetupError(Exception):
    """The checkout cannot be benchmarked (no sources, no BENCHMARK.json)."""


def prepare() -> None:
    """Pin BLAS to one thread unless the caller chose, and import the
    package from this checkout's ``src`` only, never an installed copy."""
    if not (SRC / "branchdistill" / "__init__.py").is_file():
        raise SetupError(f"no package sources at {SRC / 'branchdistill'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SetupError(f"no BENCHMARK.json at {ROOT}")
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import branchdistill
    if Path(branchdistill.__file__).resolve().parent != (SRC / "branchdistill").resolve():
        raise SetupError(f"branchdistill imported from {branchdistill.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        **{var.lower(): os.environ.get(var) for var in BLAS_THREAD_VARS},
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _throughput(setups, iterations, stages) -> float:
    """Samples per second of the stage calls in ``stages``, each call timed
    by its median over the passes, so that one slow call moves nothing.

    Taken from the timed iterations when they issue ``stages``, from the
    set-up passes otherwise; every pass of a kind issues the same calls.
    """
    for passes in (iterations, setups):
        calls = [c for c in zip(*(p.ops for p in passes)) if c[0][0] in stages]
        if calls:
            seconds = sum(statistics.median(s for _, s, _ in call) for call in calls)
            return sum(call[0][2] for call in calls) / seconds
    raise ValueError(f"no pass issues {stages}")


def run(name: str, seed: int, seconds: float, trace: bool, shape: dict | None = None,
        work: Path | None = None) -> dict:
    """Set up and measure one workload; returns every metric it computed,
    the report and the checks, without printing."""
    from tracing import Tracer
    from workloads import WORKLOADS, Pass, digest_outputs

    work = work or WORK / name
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[name](work, seed, shape)
    tracer = Tracer() if trace else None

    # Each round sets the workload up afresh and then runs one timed
    # iteration on what it prepared. Rounds repeat for the whole measuring
    # time, so set-up passes and iterations alike sample the machine's
    # speed, which drifts over seconds, across the run.
    setups, iterations, digests, rounds = [], [], [], []
    start = round_start = time.perf_counter()
    while True:
        p = Pass(tracer)
        workload.setup(p)
        if tracer:
            tracer.end_pass("setup")
        setups.append(p)

        traced = trace and len(iterations) % 2 == 1
        p = Pass(tracer if traced else None)
        workload.iterate(p)
        if traced:
            tracer.end_pass("iteration")
        iterations.append(p)
        digests.append(digest_outputs(p.outputs))

        now = time.perf_counter()
        rounds.append(now - round_start)
        round_start = now
        done = len(iterations)
        paired = not trace or done % 2 == 0     # a traced run ends on a traced iteration
        if done >= MIN_ROUNDS and paired and now - start + statistics.mean(rounds) > seconds:
            break
    shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in iterations if p.tracer is None]
    metrics = {
        "setup_s": statistics.median(p.seconds for p in setups),
        "wall_s": statistics.median(p.seconds for p in untraced),
        "teacher_train_sps": _throughput(setups, untraced, ("train_teacher",)),
        "distill_sps": _throughput(setups, untraced, ("distill",)),
        "infer_sps": _throughput(setups, untraced, ("dump_logits", "evaluate")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    quality = {}
    for p in setups + iterations:
        quality.update(p.quality)
    if trace:
        metrics.update(tracer.summary())
        traced_seconds = [p.seconds for p in iterations if p.tracer is not None]
        metrics["trace.overhead_s"] = statistics.median(traced_seconds) - metrics["wall_s"]
        metrics["trace.absent"] = len(tracer.absent)
        metrics.update({f"quality.{k}": v for k, v in quality.items()})

    checks = [c for p in setups + iterations for c in p.checks]
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "setup_passes": len(setups),
        "iterations": len(iterations),
        "artifact_sha256": digests[0],
        "artifacts_identical": len(set(digests)) == 1,
        "quality": quality,
        "absent": tracer.absent if trace else [],
        "failed_checks": sorted({what for what, ok in checks if not ok}),
        "environment": environment(),
    }
    return {"metrics": metrics, "report": report, "checks": checks}


def result_line(outcome: dict, spec: dict, trace: bool) -> dict:
    """The result object: the metrics BENCHMARK.json lists for this mode."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    failed = sum(1 for _, ok in outcome["checks"] if not ok)
    return {
        "correct": failed == 0,
        "attempted": len(outcome["checks"]),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline", "ablate_distill", "inference"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        prepare()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": outcome["report"]}, sort_keys=True))
    print(json.dumps(result_line(outcome, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
