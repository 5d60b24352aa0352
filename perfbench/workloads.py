"""The benchmark's workloads, their set-up, and their output checks.

Each workload is a set-up pass and a timed iteration over what the set-up
prepared; a run repeats the pair. Both issue the ``cli.op_*`` stage calls
themselves, in the order a user runs them, and time only those calls. All
inputs come from the run's seed.

The shape is the criterion-8 pipeline (default model and optimiser, three
branch languages plus the held-out zero-shot language) with 80 records
instead of 500 and two epochs instead of ten (one outside the pipeline
workload, see ``Workload``): at full size one pipeline takes minutes, and
the benchmark has to repeat each workload many times inside its time
budget. Forward, backward and teacher-target work per step are as at full
size; the optimiser's dense pass over the embedding is smaller, because
fewer records bring a smaller vocabulary. At this size the models do not
converge, so output quality is reported but not bounded.

The Tier-1 test run (about six minutes, most of it criteria 8 and 9) is
deliberately not a workload: it is a fixed suite with its own gates, not
something a user runs to get a result, and it would not fit in a run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

from branchdistill import cli
from branchdistill import corpus as cp
from branchdistill import evaluation as ev
from branchdistill.distill import LogitStore
from branchdistill.model import load_model

# Overrides of the pipeline's defaults for the timed shape.
SHAPE = {"corpus.records": 80, "train.epochs": 2}

# The byte-identity criterion's tiny configuration: the smoke test's shape,
# and the pipeline workload's warm-up.
TINY = {
    "corpus.records": 40, "corpus.passage_min": 5, "corpus.passage_max": 8,
    "model.hidden": 8, "model.ffn": 12, "model.max_len": 32,
    "train.epochs": 2, "train.lr": 0.002,
}


def make_config(out_dir: Path, seed: int, shape: dict) -> cli.PipelineConfig:
    ns = argparse.Namespace(config=None, seed=seed, out_dir=str(out_dir))
    for key, value in shape.items():
        setattr(ns, key, value)
    return cli.resolve_config(ns)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


class Pass:
    """One set-up pass or one timed iteration: its stage calls and checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[tuple[str, float, int]] = []     # (stage, seconds, samples)
        self.checks: list[tuple[str, bool]] = []
        self.quality: dict[str, float] = {}
        self.outputs: list[Path] = []

    def op(self, stage: str, count, *args, **kwargs):
        """Call ``cli.op_<stage>``, timing only the call; ``count`` maps its
        result to the number of samples it processed, outside the timing.

        In a traced pass the wrappers are in place only during the call, so
        the checks' own reads never count toward a layer. Each call starts
        from a collected heap, so garbage the previous call left is not
        charged to it.
        """
        with self.tracer or contextlib.nullcontext(), \
                contextlib.redirect_stdout(io.StringIO()):
            fn = getattr(cli, f"op_{stage}")
            gc.collect()
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
        self.ops.append((stage, seconds, count(result) if count else 0))
        return result

    @property
    def seconds(self) -> float:
        """Time spent in this pass's stage calls."""
        return sum(seconds for _, seconds, _ in self.ops)

    def check(self, what: str, ok) -> None:
        self.checks.append((what, bool(ok)))


# --- sample counts for the throughput metrics ---


def _trained_samples(run_dir: Path) -> int:
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    return manifest["n_samples"] * manifest["train_config"]["epochs"]


def _stored_samples(store_path: Path) -> int:
    return LogitStore(store_path).count


def _scored_samples(report: ev.EvalReport) -> int:
    return report.n


# --- checks shared by the workloads ---


def _check_run(p: Pass, run_dir: Path, must_improve: bool) -> dict:
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    losses = [e[k] for e in manifest["epoch_losses"] for k in ("nll", "kd", "total")]
    p.check(f"{run_dir.name}: checkpoint loads", load_model(run_dir / "final.ckpt"))
    p.check(f"{run_dir.name}: losses finite", losses and all(map(math.isfinite, losses)))
    if must_improve:
        curve = manifest["epoch_losses"]
        p.check(f"{run_dir.name}: last-epoch loss below first",
                curve[-1]["total"] < curve[0]["total"])
    return manifest


def _check_report(p: Pass, report_path: Path, dataset: Path) -> ev.EvalReport:
    report = ev.EvalReport.load(report_path)
    p.check(f"{report_path.name}: n + skips = eval-set size",
            report.n + report.skips == len(cp.read_samples(dataset)))
    return report


def _evaluate(p: Pass, cfg, model_path: Path, reports: Path, name: str,
              zero_shot: bool = False) -> ev.EvalReport:
    zz = cfg.zero_shot_language if zero_shot else None
    report_path = reports / f"{name}.json"
    p.op("evaluate", _scored_samples, cfg, model_path, zero_shot_language=zz,
         report_path=report_path, name=name)
    dataset = cfg.eval_zero_shot_path(zz) if zz else cfg.eval_grid_path
    return _check_report(p, report_path, dataset)


def _prepare(p: Pass, cfg) -> None:
    """Corpus, branches, one teacher per branch and its logit store."""
    p.op("generate", None, cfg)
    p.op("build", None, cfg, "lbmrc")
    for lang in cfg.languages:
        p.op("train_teacher", _trained_samples, cfg, branch=lang)
        p.op("dump_logits", _stored_samples, cfg, lang)


def _evaluate_teachers(p: Pass, cfg, reports: Path) -> None:
    ems = [
        _evaluate(p, cfg, cfg.teacher_dir(lang) / "final.ckpt", reports,
                  f"teacher_{lang}").cell(lang, lang).em
        for lang in cfg.languages
    ]
    p.quality["teacher_em_min"] = min(ems)


def _evaluate_student(p: Pass, cfg, run_dir: Path, reports: Path) -> tuple[float, float]:
    """Grid and zero-shot exact match of one student."""
    ckpt = run_dir / "final.ckpt"
    grid = _evaluate(p, cfg, ckpt, reports, run_dir.name)
    zero_shot = _evaluate(p, cfg, ckpt, reports, f"{run_dir.name}_zero_shot", zero_shot=True)
    return grid.overall_em, zero_shot.overall_em


# --- workloads ---


class Workload:
    # Every workload but the pipeline trains for one epoch: the cost per
    # sample of distillation and inference does not depend on how long the
    # teachers trained, and shorter passes leave room for more of them.
    shape = {**SHAPE, "train.epochs": 1}

    def __init__(self, work: Path, seed: int, shape: dict | None = None):
        self.work, self.seed = work, seed
        self.cfg = None
        if shape is not None:
            self.shape = shape


class Pipeline(Workload):
    """What users run: every stage, corpus to student reports, in one go.

    Chosen because it is the paper's end-to-end claim; teacher training and
    distillation dominate it, corpus and evaluation are small.
    """

    name = "pipeline"
    shape = SHAPE

    @staticmethod
    def _stages(p: Pass, cfg) -> None:
        _prepare(p, cfg)
        _evaluate_teachers(p, cfg, cfg.reports_dir)
        student = p.op("distill", _trained_samples, cfg, run_name="student_imp",
                       strategy="impurity")
        p.quality["student_em"], p.quality["zero_shot_em"] = _evaluate_student(
            p, cfg, student, cfg.reports_dir)
        for lang in cfg.languages:
            _check_run(p, cfg.teacher_dir(lang), must_improve=True)
            p.check(f"store {lang} loads", LogitStore(cfg.store_path(lang)).count)
        manifest = _check_run(p, student, must_improve=True)
        p.quality["student_final_loss"] = manifest["epoch_losses"][-1]["total"]
        p.outputs = [cfg.out_dir]

    def setup(self, p: Pass) -> None:
        """Warm-up: the whole stage sequence at the tiny shape (imports, BLAS
        start-up and first-call costs land here, not in the timed region)."""
        self._stages(p, make_config(_fresh(self.work / "warmup"), self.seed, TINY))

    def iterate(self, p: Pass) -> None:
        self._stages(p, make_config(_fresh(self.work / "pipeline"), self.seed, self.shape))


class AblateDistill(Workload):
    """Five of ``op_ablate``'s student settings over prepared teachers.

    Chosen because teacher-target construction and store reads scale with
    the teacher count K and the weighting strategy while forward and
    backward do not: a target-table or store-read change shows here. No
    teacher is trained in the timed region.
    """

    name = "ablate_distill"

    def settings(self):
        langs = self.cfg.languages
        rows = [("ours_hyper", "fixed", langs), ("ours_imp", "impurity", langs)]
        rows += [(f"wo_{lang}", "impurity", [x for x in langs if x != lang]) for lang in langs[1:]]
        rows.append((f"w_{langs[0]}_only", "impurity", [langs[0]]))
        return rows

    def setup(self, p: Pass) -> None:
        """Corpus, branches, teachers, their stores and reports."""
        cfg = make_config(_fresh(self.work / "prepared"), self.seed, self.shape)
        _prepare(p, cfg)
        _evaluate_teachers(p, cfg, cfg.reports_dir)
        for lang in cfg.languages:
            _check_run(p, cfg.teacher_dir(lang), must_improve=False)
        self.cfg = cfg

    def iterate(self, p: Pass) -> None:
        cfg = self.cfg
        students = _fresh(cfg.out_dir / "students")
        reports = _fresh(cfg.out_dir / "ablation_reports")
        for run_name, strategy, teachers in self.settings():
            run_dir = p.op("distill", _trained_samples, cfg, run_name=run_name,
                           strategy=strategy, teachers=teachers)
            ems = _evaluate_student(p, cfg, run_dir, reports)
            manifest = _check_run(p, run_dir, must_improve=False)
            digests = manifest["teacher_store_digests"]
            p.check(f"{run_name}: manifest store digests match the stores",
                    sorted(digests) == sorted(teachers) and all(
                        digests[t] == cp.sha256_file(cfg.store_path(t)) for t in teachers))
            if run_name == "ours_imp":
                p.quality["student_em"], p.quality["zero_shot_em"] = ems
                p.quality["student_final_loss"] = manifest["epoch_losses"][-1]["total"]
        p.outputs = [students, reports]


class Inference(Workload):
    """Forward-only stages over prepared checkpoints: logit dumps and reports.

    Chosen because it has store writes, checkpoint loads and span decoding
    but no backward pass, optimiser or teacher targets: a tape or optimiser
    change should leave it unchanged, a forward or store-write change shows.
    """

    name = "inference"

    def setup(self, p: Pass) -> None:
        """Corpus, branches, teachers, their stores and one distilled student."""
        cfg = make_config(_fresh(self.work / "prepared"), self.seed, self.shape)
        _prepare(p, cfg)
        for lang in cfg.languages:
            _check_run(p, cfg.teacher_dir(lang), must_improve=False)
        student = p.op("distill", _trained_samples, cfg, run_name="student_imp",
                       strategy="impurity")
        manifest = _check_run(p, student, must_improve=False)
        p.quality["student_final_loss"] = manifest["epoch_losses"][-1]["total"]
        self.cfg = cfg

    def iterate(self, p: Pass) -> None:
        cfg = self.cfg
        stores = _fresh(cfg.out_dir / "logits")
        reports = _fresh(cfg.out_dir / "inference_reports")
        for lang in cfg.languages:
            p.op("dump_logits", _stored_samples, cfg, lang)
        _evaluate_teachers(p, cfg, reports)
        p.quality["student_em"], p.quality["zero_shot_em"] = _evaluate_student(
            p, cfg, cfg.student_dir("student_imp"), reports)

        union_ids = {s.key() for s in cp.read_samples(cfg.union_path)}
        for lang in cfg.languages:
            store = LogitStore(cfg.store_path(lang))
            p.check(f"store {lang}: holds every union sample", set(store.sample_ids()) == union_ids)
            p.check(f"store {lang}: logits finite", all(
                np.isfinite(r.z_s).all() and np.isfinite(r.z_e).all()
                for r in map(store.get, sorted(union_ids))))
        p.outputs = [stores, reports]


WORKLOADS = {w.name: w for w in (Pipeline, AblateDistill, Inference)}


def digest_outputs(paths: list[Path]) -> str:
    """SHA-256 over the relative names and bytes of every file under ``paths``."""
    digest = hashlib.sha256()
    for root in paths:
        for path in sorted(root.rglob("*")):
            if path.is_file():
                digest.update(f"{root.name}/{path.relative_to(root)}\0".encode("utf-8"))
                digest.update(path.read_bytes())
    return digest.hexdigest()
