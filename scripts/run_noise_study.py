#!/usr/bin/env python3
"""Noise-robustness study: distilled student vs. per-language translate-train.

For each seed the corpus is regenerated with translation noise, the full
branch-training + distillation pipeline runs, and the per-language
translate-train baseline is trained on the same split (``cli.noise_study``).
Macro-EM over the passage-language x question-language grid is compared,
averaged over seeds.

Takes every CLI setting. By default it generates 300 records with each
noise probability at 0.1 under ``runs/noise_study``; these defaults count as
flags, so they also override the same keys in a ``--config`` file.

Usage:
    python scripts/run_noise_study.py --corpus.records 300 --seeds 11,12,13
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from branchdistill import cli
from branchdistill.errors import InvalidConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_config_flags(parser)
    parser.add_argument("--seeds", default="11,12,13", help="comma-separated seeds")
    parser.set_defaults(out_dir="runs/noise_study", **{
        "corpus.records": 300, "noise.token_drop_prob": 0.1,
        "noise.token_swap_prob": 0.1, "noise.marker_destroy_prob": 0.1,
    })
    args = parser.parse_args()
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError as exc:
        raise InvalidConfig(f"bad value {args.seeds!r} for --seeds ({exc})") from exc

    pairs = cli.noise_study(cli.resolve_config(args), seeds)
    for seed, (student, baseline) in zip(seeds, pairs):
        print(f"seed {seed}: student macro-EM {student:.4f} | "
              f"translate-train macro-EM {baseline:.4f}")
    student_mean, baseline_mean = np.mean(pairs, axis=0)
    print(f"mean over {len(pairs)} seeds: "
          f"student {student_mean:.4f} vs translate-train {baseline_mean:.4f}")
    print("robustness direction "
          + ("CONFIRMED" if student_mean >= baseline_mean else "NOT confirmed"))
    return 0 if student_mean >= baseline_mean else 1


if __name__ == "__main__":
    sys.exit(cli.guarded(main))
