"""Command-line pipeline: generate -> build -> train-teacher -> dump-logits
-> distill -> evaluate, plus ablate and compare.

Stages communicate only through files under ``--out-dir`` so expensive
artifacts (teacher checkpoints, logit stores) can be reused across ablation
settings. Configuration is a flat JSON object with dotted keys; every key
can be overridden by a flag of the same name, and a handful of short
aliases (``--records``, ``--mode``, ``--strategy``, ...) cover the common
ones. All randomness flows from the single ``--seed`` value.

Exit codes: 0 success, 2 configuration error, 3 missing upstream artifact,
1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import corpus as cp
from . import evaluation as ev
from .distill import LogitStore
from .errors import (
    InvalidConfig,
    InvalidLabel,
    InvalidParameter,
    InvalidRecord,
    MissingArtifact,
    ShapeError,
    Unrecoverable,
    malformed_as_invalid,
)
from .model import ModelConfig, Vocabulary, load_model
from .train import (
    RunManifest,
    TrainConfig,
    distill_student,
    dump_teacher_logits,
    train_teacher,
)


# ---------------------------------------------------------------------------
# Configuration schema
# ---------------------------------------------------------------------------


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise InvalidConfig(f"expected a boolean, got {text!r}")


# key -> (parser, default, help)
SCHEMA: dict[str, tuple] = {
    "languages": (str, "en,es,de", "comma-separated training languages; the first is the source"),
    "zero_shot_language": (str, "zz", "extra language generated in the corpus but held out of training; empty disables"),
    "corpus.records": (int, 500, "number of aligned records to generate"),
    "corpus.content_vocab": (int, 50, "content token types per language"),
    "corpus.cue_count": (int, 8, "cue token types (shared across languages)"),
    "corpus.question_words": (int, 5, "question word types per language"),
    "corpus.passage_min": (int, 10, "minimum body tokens per passage"),
    "corpus.passage_max": (int, 20, "maximum body tokens per passage"),
    "corpus.answer_max_len": (int, 3, "maximum answer span length"),
    "corpus.eval_fraction": (float, 0.2, "fraction of records held out for evaluation"),
    "noise.token_drop_prob": (float, 0.0, "per-token drop probability in non-source renderings"),
    "noise.token_swap_prob": (float, 0.0, "adjacent-token swap probability in non-source renderings"),
    "noise.marker_destroy_prob": (float, 0.0, "probability a rendering loses an answer marker"),
    "model.hidden": (int, 32, "encoder hidden size"),
    "model.ffn": (int, 64, "feed-forward inner size"),
    "model.max_len": (int, 64, "packed input length"),
    "model.layers": (int, 1, "encoder layers"),
    "train.epochs": (int, 10, "training epochs"),
    "train.batch_size": (int, 8, "mini-batch size"),
    "train.tau": (float, 2.0, "distillation temperature"),
    "train.lambda1": (float, 0.5, "weight of the hard-label loss"),
    "train.lambda2": (float, 0.5, "weight of the distillation loss"),
    "train.strategy": (str, "fixed", "teacher weighting: fixed or impurity"),
    "train.impurity_sign": (int, 1, "+1 weights high-entropy teachers up, -1 down"),
    "train.lr": (float, 5e-3, "peak learning rate (linear warmup, then linear decay to zero)"),
    "train.weight_decay": (float, 0.005, "decoupled weight decay"),
    "train.clip_norm": (float, 5.0, "global gradient-norm clip; <= 0 disables"),
    "train.augment_source": (_parse_bool, True, "add the source branch to every non-source branch"),
    "eval.max_answer_length": (int, 30, "decoding length constraint"),
}


@dataclass
class PipelineConfig:
    """Resolved flat configuration plus the run's seed and output directory."""

    values: dict
    seed: int
    out_dir: Path

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def languages(self) -> list[str]:
        langs = [x for x in str(self.values["languages"]).split(",") if x]
        if not langs:
            raise InvalidConfig("language list must be non-empty")
        if len(set(langs)) != len(langs):
            raise InvalidConfig("language list contains duplicates")
        return langs

    @property
    def source_language(self) -> str:
        return self.languages[0]

    @property
    def zero_shot_language(self) -> str | None:
        return self.values["zero_shot_language"] or None

    def task_spec(self) -> cp.TaskSpec:
        return cp.TaskSpec(
            content_vocab_size=self.values["corpus.content_vocab"],
            cue_count=self.values["corpus.cue_count"],
            question_word_count=self.values["corpus.question_words"],
            passage_min=self.values["corpus.passage_min"],
            passage_max=self.values["corpus.passage_max"],
            answer_max_len=self.values["corpus.answer_max_len"],
            seed=self.seed,
        )

    def noise_spec(self) -> cp.NoiseSpec:
        return cp.NoiseSpec(
            token_drop_prob=self.values["noise.token_drop_prob"],
            token_swap_prob=self.values["noise.token_swap_prob"],
            marker_destroy_prob=self.values["noise.marker_destroy_prob"],
            seed=self.seed,
        )

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            vocab_size=vocab_size,
            hidden=self.values["model.hidden"],
            ffn=self.values["model.ffn"],
            max_len=self.values["model.max_len"],
            layers=self.values["model.layers"],
        )

    def train_config(self, seed: int | None = None, **overrides) -> TrainConfig:
        clip = self.values["train.clip_norm"]
        base = dict(
            epochs=self.values["train.epochs"],
            batch_size=self.values["train.batch_size"],
            seed=self.seed if seed is None else seed,
            tau=self.values["train.tau"],
            lambda1=self.values["train.lambda1"],
            lambda2=self.values["train.lambda2"],
            strategy=self.values["train.strategy"],
            impurity_sign=self.values["train.impurity_sign"],
            lr=self.values["train.lr"],
            weight_decay=self.values["train.weight_decay"],
            clip_norm=None if clip is not None and clip <= 0 else clip,
        )
        base.update(overrides)
        return TrainConfig(**base)

    def eval_config(self) -> ev.EvalConfig:
        return ev.EvalConfig(max_answer_length=self.values["eval.max_answer_length"])

    # --- layout ---

    @property
    def corpus_path(self) -> Path:
        return self.out_dir / "corpus.jsonl"

    @property
    def datasets_dir(self) -> Path:
        return self.out_dir / "datasets"

    @property
    def vocab_path(self) -> Path:
        return self.out_dir / "vocab.json"

    def branch_path(self, lang: str) -> Path:
        return self.datasets_dir / f"branch_{lang}.jsonl"

    @property
    def union_path(self) -> Path:
        return self.datasets_dir / "union.jsonl"

    @property
    def mix_path(self) -> Path:
        return self.datasets_dir / "mix.jsonl"

    def translate_train_path(self, lang: str) -> Path:
        return self.datasets_dir / f"tt_{lang}.jsonl"

    @property
    def eval_grid_path(self) -> Path:
        return self.datasets_dir / "eval_grid.jsonl"

    def eval_zero_shot_path(self, lang: str) -> Path:
        return self.datasets_dir / f"eval_zero_shot_{lang}.jsonl"

    def teacher_dir(self, name: str) -> Path:
        return self.out_dir / "teachers" / name

    def store_path(self, name: str) -> Path:
        return self.out_dir / "logits" / f"{name}.logits"

    def student_dir(self, name: str) -> Path:
        return self.out_dir / "students" / name

    @property
    def reports_dir(self) -> Path:
        return self.out_dir / "reports"


def _parse_value(key: str, raw):
    try:
        return SCHEMA[key][0](raw)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"bad value {raw!r} for {key} ({exc})") from exc


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    values = {key: default for key, (_, default, _) in SCHEMA.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise MissingArtifact(str(path))
        with malformed_as_invalid(path, "config file"):
            loaded = json.loads(path.read_text(encoding="utf-8")).items()
        for key, raw in loaded:
            if key not in SCHEMA:
                raise InvalidConfig(f"unknown config key {key!r}")
            values[key] = _parse_value(key, raw)
    for key in SCHEMA:
        supplied = getattr(args, key, None)
        if supplied is not None:
            values[key] = _parse_value(key, supplied)
    seed = int(getattr(args, "seed", 0) or 0)
    if seed < 0:
        raise InvalidConfig("seed must be non-negative")
    out_dir = Path(getattr(args, "out_dir", None) or "runs")
    return PipelineConfig(values=values, seed=seed, out_dir=out_dir)


def _require(path: Path, what: str) -> Path:
    if not Path(path).exists():
        raise MissingArtifact(f"{what}: {path}")
    return Path(path)


# ---------------------------------------------------------------------------
# Operations (shared by subcommands, scripts, and tests)
# ---------------------------------------------------------------------------


def corpus_languages(cfg: PipelineConfig) -> list[str]:
    langs = list(cfg.languages)
    if cfg.zero_shot_language and cfg.zero_shot_language not in langs:
        langs.append(cfg.zero_shot_language)
    return langs


def op_generate(cfg: PipelineConfig) -> Path:
    if cfg.values["corpus.records"] < 1:
        raise InvalidConfig("corpus.records must be >= 1")
    records = cp.generate_synthetic_corpus(
        cfg.values["corpus.records"], corpus_languages(cfg), cfg.noise_spec(), cfg.task_spec()
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    cp.write_corpus(records, cfg.corpus_path)
    digest_path = cp.write_digest(cfg.corpus_path)
    print(f"generate: {len(records)} records, languages {','.join(corpus_languages(cfg))} "
          f"-> {cfg.corpus_path}")
    print(f"generate: digest {digest_path.read_text().strip()}")
    return cfg.corpus_path


def _split_records(cfg: PipelineConfig):
    records = cp.read_corpus(_require(cfg.corpus_path, "corpus"))
    return cp.split_records(records, cfg.values["corpus.eval_fraction"])


def _write_vocab(cfg: PipelineConfig, train_records) -> Vocabulary:
    tokens: set[str] = set()
    for record in train_records:
        for lang in cfg.languages:
            rendering = record.renderings.get(lang)
            if rendering is not None:
                tokens.update(rendering.passage_tokens)
                tokens.update(rendering.question_tokens)
    vocab = Vocabulary(tokens)
    vocab.save(cfg.vocab_path)
    return vocab


def _write_eval_sets(cfg: PipelineConfig, eval_records) -> dict:
    grid = cp.build_mix_dataset(eval_records, cfg.languages, cfg.seed)
    cp.write_samples(grid.samples, cfg.eval_grid_path)
    meta = {"eval_grid": len(grid.samples)}
    zz = cfg.zero_shot_language
    if zz:
        zero = cp.build_translate_train(eval_records, zz)
        cp.write_samples(zero.samples, cfg.eval_zero_shot_path(zz))
        meta[f"eval_zero_shot_{zz}"] = len(zero.samples)
    return meta


def op_build(cfg: PipelineConfig, mode: str, language: str | None = None) -> dict:
    train_records, eval_records = _split_records(cfg)
    cfg.datasets_dir.mkdir(parents=True, exist_ok=True)
    _write_vocab(cfg, train_records)
    meta: dict = {
        "mode": mode,
        "train_records": len(train_records),
        "eval_records": len(eval_records),
        "sizes": {},
        "missing": {},
        "unrecoverable": {},
    }

    if mode == "lbmrc":
        result = cp.build_language_branches(
            train_records, cfg.languages, augment_with_source=cfg.values["train.augment_source"]
        )
        for lang, branch in result.branches.items():
            cp.write_samples(branch.samples, cfg.branch_path(lang))
            meta["sizes"][f"branch_{lang}"] = len(branch.samples)
        union = cp.union_of_branches(result.branches)
        cp.write_samples(union, cfg.union_path)
        meta["sizes"]["union"] = len(union)
    elif mode == "mixmrc":
        result = cp.build_mix_dataset(train_records, cfg.languages, cfg.seed)
        cp.write_samples(result.samples, cfg.mix_path)
        meta["sizes"]["mix"] = len(result.samples)
    elif mode == "translate-train":
        if not language:
            raise InvalidConfig("build --mode translate-train requires --language")
        result = cp.build_translate_train(train_records, language)
        cp.write_samples(result.samples, cfg.translate_train_path(language))
        meta["sizes"][f"tt_{language}"] = len(result.samples)
    else:
        raise InvalidConfig(f"unknown build mode {mode!r}")

    meta["missing"] = dict(result.missing)
    meta["unrecoverable"] = dict(result.unrecoverable)
    meta.update(_write_eval_sets(cfg, eval_records))
    meta_path = cfg.datasets_dir / f"build_meta_{mode.replace('-', '_')}.json"
    meta_path.write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n",
                         encoding="utf-8")
    for name, size in sorted(meta["sizes"].items()):
        print(f"build: {name} -> {size} samples")
    skipped = sum(meta["missing"].values()) + sum(meta["unrecoverable"].values())
    print(f"build: skipped {skipped} renderings "
          f"(missing {sum(meta['missing'].values())}, "
          f"unrecoverable {sum(meta['unrecoverable'].values())})")
    return meta


def _check_resume(run_dir: Path, train_cfg: TrainConfig, model_cfg: ModelConfig,
                  dataset_digest: str, vocab_digest: str) -> None:
    """A rerun into an existing run directory must carry the same training
    and model config, dataset and vocabulary."""
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        return
    previous = RunManifest.load(manifest_path)
    current = json.loads(json.dumps({
        "train_config": asdict(train_cfg),
        "model_config": asdict(model_cfg),
        "dataset_digest": dataset_digest,
        "vocab_digest": vocab_digest,
    }))
    changed = [key for key, value in current.items() if getattr(previous, key) != value]
    if changed:
        raise InvalidConfig(
            f"run directory {run_dir} holds a manifest with a different "
            f"{', '.join(changed)}; choose a fresh --out-dir or matching settings"
        )


def op_train_teacher(cfg: PipelineConfig, branch: str | None = None,
                     dataset: Path | None = None, run_name: str | None = None,
                     seed: int | None = None) -> Path:
    if dataset is None:
        if branch is None:
            raise InvalidConfig("train-teacher needs --branch or --dataset")
        dataset = cfg.branch_path(branch)
    run_name = run_name or branch or Path(dataset).stem
    dataset = _require(Path(dataset), "training dataset")
    vocab = Vocabulary.load(_require(cfg.vocab_path, "vocabulary"))
    samples = cp.read_samples(dataset)
    train_cfg = cfg.train_config(seed=seed, lambda1=1.0, lambda2=0.0)
    model_cfg = cfg.model_config(vocab.size)
    run_dir = cfg.teacher_dir(run_name)
    digest = cp.sha256_file(dataset)
    vocab_digest = cp.sha256_file(cfg.vocab_path)
    _check_resume(run_dir, train_cfg, model_cfg, digest, vocab_digest)
    _, manifest = train_teacher(
        samples, vocab, model_cfg, train_cfg,
        run_name=run_name, out_dir=run_dir,
        dataset_digest=digest, vocab_digest=vocab_digest,
    )
    first, last = manifest.epoch_losses[0], manifest.epoch_losses[-1]
    print(f"train-teacher {run_name}: {manifest.n_samples} samples "
          f"({manifest.skipped_samples} skipped), "
          f"loss {first['total']:.4f} -> {last['total']:.4f}")
    return run_dir


def op_dump_logits(cfg: PipelineConfig, teacher: str, model_path: Path | None = None,
                   dataset: Path | None = None, store_path: Path | None = None) -> Path:
    model_path = model_path or (cfg.teacher_dir(teacher) / "final.ckpt")
    dataset = dataset or cfg.union_path
    store_path = store_path or cfg.store_path(teacher)
    model = load_model(_require(Path(model_path), "teacher checkpoint"))
    vocab = Vocabulary.load(_require(cfg.vocab_path, "vocabulary"))
    samples = cp.read_samples(_require(Path(dataset), "distillation dataset"))
    store_path.parent.mkdir(parents=True, exist_ok=True)
    written, skipped = dump_teacher_logits(model, samples, vocab, store_path, teacher)
    print(f"dump-logits {teacher}: {written} records ({skipped} skipped) -> {store_path}")
    return store_path


def op_distill(cfg: PipelineConfig, run_name: str | None = None,
               strategy: str | None = None, impurity_sign: int | None = None,
               teachers: list[str] | None = None, dataset: Path | None = None,
               seed: int | None = None) -> Path:
    teachers = teachers or cfg.languages
    strategy = strategy or cfg.values["train.strategy"]
    sign = cfg.values["train.impurity_sign"] if impurity_sign is None else impurity_sign
    run_name = run_name or ("student_imp" if strategy == "impurity" else "student_hyper")
    dataset = dataset or cfg.union_path
    vocab = Vocabulary.load(_require(cfg.vocab_path, "vocabulary"))
    samples = cp.read_samples(_require(Path(dataset), "distillation dataset"))
    stores = {
        t: LogitStore(_require(cfg.store_path(t), f"logit store for {t!r}"))
        for t in teachers
    }
    train_cfg = cfg.train_config(
        seed=seed, strategy=strategy, impurity_sign=sign, teacher_ids=tuple(sorted(teachers))
    )
    model_cfg = cfg.model_config(vocab.size)
    run_dir = cfg.student_dir(run_name)
    digest = cp.sha256_file(dataset)
    vocab_digest = cp.sha256_file(cfg.vocab_path)
    _check_resume(run_dir, train_cfg, model_cfg, digest, vocab_digest)
    _, manifest = distill_student(
        stores, samples, vocab, model_cfg, train_cfg,
        run_name=run_name, out_dir=run_dir,
        dataset_digest=digest, vocab_digest=vocab_digest,
    )
    first, last = manifest.epoch_losses[0], manifest.epoch_losses[-1]
    print(f"distill {run_name}: teachers={sorted(teachers)} strategy={strategy} "
          f"loss {first['total']:.4f} -> {last['total']:.4f}")
    return run_dir


def op_evaluate(cfg: PipelineConfig, model_path: Path, dataset: Path | None = None,
                zero_shot_language: str | None = None,
                report_path: Path | None = None, name: str = "run") -> ev.EvalReport:
    if zero_shot_language:
        dataset = cfg.eval_zero_shot_path(zero_shot_language)
    if dataset is None:
        dataset = cfg.eval_grid_path
    model = load_model(_require(Path(model_path), "model checkpoint"))
    vocab = Vocabulary.load(_require(cfg.vocab_path, "vocabulary"))
    samples = cp.read_samples(_require(Path(dataset), "evaluation dataset"))
    report = ev.evaluate(model, samples, vocab, cfg.eval_config())
    if report_path is not None:
        report_path = Path(report_path)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report.save(report_path)
        Path(str(report_path).removesuffix(".json") + ".txt").write_text(
            ev.render_report(report, name) + "\n", encoding="utf-8"
        )
    print(f"evaluate {name}: em={report.overall_em:.4f} f1={report.overall_f1:.4f} "
          f"n={report.n} skips={report.skips}")
    return report


def op_compare(reports: list[ev.EvalReport], names: list[str], baseline: int = 0,
               out_path: Path | None = None) -> dict:
    comparison = ev.compare_runs(reports, names, baseline)
    text = ev.render_comparison(comparison)
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(comparison, sort_keys=True, separators=(",", ":")) + "\n",
                            encoding="utf-8")
        Path(str(out_path).removesuffix(".json") + ".txt").write_text(text + "\n",
                                                                      encoding="utf-8")
    print(text)
    return comparison


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


@dataclass
class PipelineArtifacts:
    teacher_reports: dict[str, ev.EvalReport] = field(default_factory=dict)
    student_reports: dict[str, ev.EvalReport] = field(default_factory=dict)
    zero_shot_reports: dict[str, ev.EvalReport] = field(default_factory=dict)
    student_dirs: dict[str, Path] = field(default_factory=dict)


def run_pipeline(cfg: PipelineConfig, strategies: tuple[str, ...] = ("hyper", "imp"),
                 evaluate_teachers: bool = True) -> PipelineArtifacts:
    """Full pipeline on one output directory: corpus through student reports."""
    op_generate(cfg)
    op_build(cfg, "lbmrc")
    for lang in cfg.languages:
        op_train_teacher(cfg, branch=lang)
        op_dump_logits(cfg, lang)
    artifacts = PipelineArtifacts()
    cfg.reports_dir.mkdir(parents=True, exist_ok=True)
    if evaluate_teachers:
        for lang in cfg.languages:
            artifacts.teacher_reports[lang] = op_evaluate(
                cfg, cfg.teacher_dir(lang) / "final.ckpt",
                report_path=cfg.reports_dir / f"teacher_{lang}.json",
                name=f"teacher_{lang}",
            )
    for strategy_name in strategies:
        strategy = "impurity" if strategy_name == "imp" else "fixed"
        run_name = f"student_{strategy_name}"
        run_dir = op_distill(cfg, run_name=run_name, strategy=strategy)
        artifacts.student_dirs[run_name] = run_dir
        artifacts.student_reports[run_name] = op_evaluate(
            cfg, run_dir / "final.ckpt",
            report_path=cfg.reports_dir / f"{run_name}.json", name=run_name,
        )
        zz = cfg.zero_shot_language
        if zz:
            artifacts.zero_shot_reports[run_name] = op_evaluate(
                cfg, run_dir / "final.ckpt", zero_shot_language=zz,
                report_path=cfg.reports_dir / f"{run_name}_zero_shot_{zz}.json",
                name=f"{run_name}_zero_shot",
            )
    return artifacts


def run_translate_train_baseline(cfg: PipelineConfig) -> ev.EvalReport:
    """Per-language translate-train models combined into one grid report.

    Each grid cell (p, q) is scored by the model trained on language p, the
    most favorable reading for this baseline.
    """
    vocab = Vocabulary.load(_require(cfg.vocab_path, "vocabulary"))
    grid_samples = cp.read_samples(_require(cfg.eval_grid_path, "evaluation grid"))
    partial_reports = []
    for lang in cfg.languages:
        op_build(cfg, "translate-train", language=lang)
        run_dir = op_train_teacher(
            cfg, dataset=cfg.translate_train_path(lang), run_name=f"tt_{lang}"
        )
        model = load_model(run_dir / "final.ckpt")
        subset = [s for s in grid_samples if s.passage_lang == lang]
        partial_reports.append(ev.evaluate(model, subset, vocab, cfg.eval_config()))
    return ev.merge_reports(partial_reports)


def op_ablate(cfg: PipelineConfig) -> dict:
    """Teacher-set and strategy ablations over one prepared output directory."""
    _require(cfg.corpus_path, "corpus (run generate first)")
    op_build(cfg, "lbmrc")
    for lang in cfg.languages:
        if not (cfg.teacher_dir(lang) / "final.ckpt").exists():
            op_train_teacher(cfg, branch=lang)
        if not cfg.store_path(lang).exists():
            op_dump_logits(cfg, lang)

    # teachers trained on the mixed dataset, one per branch slot
    op_build(cfg, "mixmrc")
    mix_ids = []
    for i in range(len(cfg.languages)):
        name = f"mix_{i}"
        if not (cfg.teacher_dir(name) / "final.ckpt").exists():
            op_train_teacher(cfg, dataset=cfg.mix_path, run_name=name, seed=cfg.seed + 1 + i)
        if not cfg.store_path(name).exists():
            op_dump_logits(cfg, name)
        mix_ids.append(name)

    cfg.reports_dir.mkdir(parents=True, exist_ok=True)
    names: list[str] = []
    reports: list[ev.EvalReport] = []

    for lang in cfg.languages:
        names.append(f"teacher_{lang}")
        reports.append(op_evaluate(
            cfg, cfg.teacher_dir(lang) / "final.ckpt",
            report_path=cfg.reports_dir / f"teacher_{lang}.json", name=f"teacher_{lang}",
        ))

    settings: list[tuple[str, str, list[str]]] = [
        ("ours_hyper", "fixed", cfg.languages),
        ("ours_imp", "impurity", cfg.languages),
    ]
    for lang in cfg.languages[1:]:
        settings.append((f"wo_{lang}", "impurity", [x for x in cfg.languages if x != lang]))
    settings.append((f"w_{cfg.source_language}_only", "impurity", [cfg.source_language]))
    settings.append(("w_mix", "impurity", mix_ids))

    for run_name, strategy, teacher_set in settings:
        run_dir = op_distill(cfg, run_name=run_name, strategy=strategy, teachers=teacher_set)
        names.append(run_name)
        reports.append(op_evaluate(
            cfg, run_dir / "final.ckpt",
            report_path=cfg.reports_dir / f"{run_name}.json", name=run_name,
        ))

    baseline = names.index("ours_imp")
    return op_compare(reports, names, baseline, cfg.reports_dir / "ablation.json")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file with flat dotted keys")
    parser.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    parser.add_argument("--out-dir", dest="out_dir", default="runs",
                        help="directory holding every pipeline artifact")
    for key, (_, default, help_text) in SCHEMA.items():
        # argparse %-formats help strings, so a literal % must be doubled
        parser.add_argument(f"--{key}", dest=key, default=None, metavar="V",
                            help=f"{help_text} (default {default})".replace("%", "%%"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchdistill",
        description="Language-branch training and multi-teacher distillation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate the synthetic aligned corpus")
    p.add_argument("--records", type=int, default=None, help="alias for --corpus.records")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build", help="build branch / mixed / translate-train datasets")
    p.add_argument("--mode", choices=["lbmrc", "mixmrc", "translate-train"], default="lbmrc",
                   help="dataset construction strategy")
    p.add_argument("--language", default=None, help="target language for translate-train")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("train-teacher", help="train one branch model")
    p.add_argument("--branch", default=None, help="branch language to train on")
    p.add_argument("--dataset", default=None, help="explicit dataset path")
    p.add_argument("--run-name", dest="run_name", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("dump-logits", help="precompute one teacher's logits")
    p.add_argument("--teacher", required=True, help="teacher name (run directory under teachers/)")
    p.add_argument("--model", default=None, help="explicit checkpoint path")
    p.add_argument("--dataset", default=None, help="dataset to cover (default: the union)")
    p.add_argument("--store", default=None, help="explicit store output path")
    _add_common(p)
    p.set_defaults(func=cmd_dump_logits)

    p = sub.add_parser("distill", help="train the multilingual student")
    p.add_argument("--strategy", choices=["fixed", "impurity"], default=None,
                   help="alias for --train.strategy")
    p.add_argument("--impurity-sign", dest="impurity_sign", type=int, default=None,
                   help="alias for --train.impurity_sign")
    p.add_argument("--teachers", default=None, help="comma-separated teacher subset")
    p.add_argument("--dataset", default=None, help="explicit dataset path")
    p.add_argument("--run-name", dest="run_name", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    p.add_argument("--model", required=True, help="checkpoint to evaluate")
    p.add_argument("--dataset", default=None, help="dataset path (default: the eval grid)")
    p.add_argument("--zero-shot-language", dest="zero_shot_eval", default=None,
                   help="evaluate on a language held out of training")
    p.add_argument("--report", default=None, help="write the report JSON here")
    p.add_argument("--name", default="run", help="row name in the rendered table")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the teacher-set and strategy ablation matrix")
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("compare", help="align several report JSONs into one table")
    p.add_argument("--reports", nargs="+", required=True, help="report JSON paths")
    p.add_argument("--names", default=None, help="comma-separated row names")
    p.add_argument("--baseline", type=int, default=0, help="index of the baseline row")
    p.add_argument("--out", default=None, help="write the comparison JSON here")
    _add_common(p)
    p.set_defaults(func=cmd_compare)
    return parser


def cmd_generate(args) -> int:
    cfg = resolve_config(args)
    if args.records is not None:
        cfg.values["corpus.records"] = int(args.records)
    op_generate(cfg)
    return 0


def cmd_build(args) -> int:
    cfg = resolve_config(args)
    op_build(cfg, args.mode, language=args.language)
    return 0


def cmd_train_teacher(args) -> int:
    cfg = resolve_config(args)
    op_train_teacher(
        cfg, branch=args.branch,
        dataset=Path(args.dataset) if args.dataset else None,
        run_name=args.run_name,
    )
    return 0


def cmd_dump_logits(args) -> int:
    cfg = resolve_config(args)
    op_dump_logits(
        cfg, args.teacher,
        model_path=Path(args.model) if args.model else None,
        dataset=Path(args.dataset) if args.dataset else None,
        store_path=Path(args.store) if args.store else None,
    )
    return 0


def cmd_distill(args) -> int:
    cfg = resolve_config(args)
    teachers = args.teachers.split(",") if args.teachers else None
    op_distill(
        cfg, run_name=args.run_name, strategy=args.strategy,
        impurity_sign=args.impurity_sign, teachers=teachers,
        dataset=Path(args.dataset) if args.dataset else None,
    )
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    op_evaluate(
        cfg, Path(args.model),
        dataset=Path(args.dataset) if args.dataset else None,
        zero_shot_language=args.zero_shot_eval,
        report_path=Path(args.report) if args.report else None,
        name=args.name,
    )
    return 0


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    op_ablate(cfg)
    return 0


def cmd_compare(args) -> int:
    cfg = resolve_config(args)
    reports = [ev.EvalReport.load(_require(Path(p), "report")) for p in args.reports]
    names = args.names.split(",") if args.names else [Path(p).stem for p in args.reports]
    out = Path(args.out) if args.out else cfg.reports_dir / "comparison.json"
    op_compare(reports, names, baseline=args.baseline, out_path=out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse handles --help and flag errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidConfig, InvalidParameter, InvalidRecord, InvalidLabel,
            Unrecoverable, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MissingArtifact, FileNotFoundError) as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
