#!/usr/bin/env python3
"""End-to-end experiment on a zero-noise synthetic corpus.

Generates the corpus, builds language branches, trains one teacher per
branch, precomputes teacher logits, distills students with both teacher
weighting strategies, and prints one comparison table with per-teacher and
per-student rows plus zero-shot evaluations. Takes every CLI setting, with
seed 7 and ``--out-dir runs/pipeline`` by default.

Usage:
    python scripts/run_pipeline.py --corpus.records 500 --seed 7 --out-dir runs/pipeline
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from branchdistill import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_config_flags(parser)
    parser.set_defaults(seed=7, out_dir="runs/pipeline")
    cfg = cli.resolve_config(parser.parse_args())

    start = time.monotonic()
    reports = cli.run_pipeline(cfg)
    zero_shot = f"_zero_shot_{cfg.zero_shot_language}"
    grid = {name: report for name, report in reports.items() if not name.endswith(zero_shot)}
    names = list(grid)
    print()
    cli.op_compare(list(grid.values()), names, baseline=names.index("student_imp"),
                   out_path=cfg.reports_dir / "pipeline_comparison.json")

    print()
    for name, report in reports.items():
        if name.endswith(zero_shot):
            print(f"zero-shot {cfg.zero_shot_language} ({name.removesuffix(zero_shot)}): "
                  f"EM {report.overall_em:.4f}  F1 {report.overall_f1:.4f}")
    print(f"\ntotal wall time: {time.monotonic() - start:.0f}s")
    print(f"artifacts under: {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(cli.guarded(main))
