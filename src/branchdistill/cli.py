"""Command-line pipeline: generate -> build -> train-teacher -> dump-logits
-> distill -> evaluate, plus ablate and compare, and the two experiments:
pipeline (every stage, teachers against students) and noise-study.

Stages communicate only through files under ``--out-dir`` so expensive
artifacts (teacher checkpoints, logit stores) can be reused across ablation
settings. Configuration is a flat JSON object with dotted keys; every key
can be overridden by a flag of the same name. All randomness flows from the
single ``--seed`` value. Every setting is checked once, when
``PipelineConfig`` is made from them, before any stage writes.

Exit codes: 0 success, 2 configuration error, 3 missing upstream artifact,
1 internal error or, for noise-study, a direction the study did not confirm.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import traceback
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import corpus as cp
from . import evaluation as ev
from .distill import LogitStore
from .errors import InvalidConfig, MissingArtifact, malformed_as_invalid
from .model import ModelConfig, Vocabulary, load_model
from .train import DistillConfig, RunManifest, TrainConfig, dump_teacher_logits, run_key, train


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


@dataclass(frozen=True)
class DataConfig:
    """The settings no stage's own class holds: the corpus's languages and
    size, its evaluation split and the branches' source augmentation. The
    language list, with ``zero_shot_language`` outside it, and the split
    ``records`` and ``eval_fraction`` make are checked here."""

    languages: str = cp.setting(
        "en,es,de", "languages", "comma-separated training languages; the first is the source")
    zero_shot_language: str = cp.setting(
        "zz", "zero_shot_language",
        "extra language generated in the corpus but held out of training; empty disables")
    records: int = cp.setting(500, "corpus.records", "number of aligned records to generate")
    eval_fraction: float = cp.setting(
        0.2, "corpus.eval_fraction", "fraction of records held out for evaluation")
    augment_source: bool = cp.setting(
        True, "train.augment_source", "add the source branch to every non-source branch")

    def __post_init__(self):
        languages = self.training_languages
        if not languages:
            raise InvalidConfig("language list must be non-empty")
        if len(set(languages)) != len(languages):
            raise InvalidConfig("language list contains duplicates")
        if self.zero_shot_language in languages:
            raise InvalidConfig(f"zero_shot_language {self.zero_shot_language!r} is a training "
                                f"language; it must be held out of {languages}")
        records, fraction = self.records, self.eval_fraction
        if not 0.0 <= fraction < 1.0:
            raise InvalidConfig(f"corpus.eval_fraction must be in [0, 1), got {fraction}")
        # the evaluation side of ``cp.split_records``; each side needs a record
        n_eval = round(records * fraction)
        if not 0 < n_eval < records:
            raise InvalidConfig(f"corpus.records {records} with corpus.eval_fraction {fraction} "
                                f"leaves {n_eval} evaluation and {records - n_eval} training "
                                f"records; each split needs at least one")

    @property
    def training_languages(self) -> list[str]:
        return [x for x in self.languages.split(",") if x]


# Every setting, by its config key: (parser, default, help), read off the
# field of the settings class that holds it; the parser is the field's type's.
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}
SCHEMA: dict[str, tuple] = {
    f.metadata["key"]: (_PARSERS[f.type], f.default, f.metadata["help"])
    for cls in (DataConfig, cp.TaskSpec, cp.NoiseSpec, ModelConfig, TrainConfig, DistillConfig,
                ev.EvalConfig)
    for f in fields(cls) if f.metadata
}


@dataclass
class PipelineConfig:
    """Resolved settings plus the run's seed and output directory. Each
    settings object is made here from ``values``, one per ``SCHEMA`` key, so
    a bad setting stops a command before any stage writes (the seed is
    checked by ``TrainConfig``); ``dataclasses.replace`` makes them again."""

    values: dict
    seed: int
    out_dir: Path
    data: DataConfig = field(init=False)
    task: cp.TaskSpec = field(init=False)
    noise: cp.NoiseSpec = field(init=False)
    model: ModelConfig = field(init=False)
    train: TrainConfig = field(init=False)
    distill: DistillConfig = field(init=False)
    eval_config: ev.EvalConfig = field(init=False)

    def __post_init__(self):
        self.data = self._settings(DataConfig)
        self.task = self._settings(cp.TaskSpec, seed=self.seed)
        self.noise = self._settings(cp.NoiseSpec, seed=self.seed)
        self.model = self._settings(ModelConfig)
        self.train = self._settings(TrainConfig, seed=self.seed)
        self.distill = self._settings(DistillConfig)
        self.eval_config = self._settings(ev.EvalConfig)

    @property
    def languages(self) -> list[str]:
        return self.data.training_languages

    @property
    def source_language(self) -> str:
        return self.languages[0]

    @property
    def zero_shot_language(self) -> str | None:
        return self.data.zero_shot_language or None

    def _settings(self, cls, **extras):
        """A ``cls`` whose setting fields take their ``values`` by key, and
        whose other fields are given in ``extras``."""
        values = {f.name: self.values[f.metadata["key"]] for f in fields(cls) if f.metadata}
        return cls(**values, **extras)

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

    def dataset_path(self, name: str) -> Path:
        """Where ``build`` writes the dataset it names ``name``: ``branch_<lang>``,
        ``union``, ``mix``, ``tt_<lang>``, ``eval_grid`` or ``eval_zero_shot_<lang>``."""
        return self.datasets_dir / f"{name}.jsonl"

    @property
    def union_path(self) -> Path:
        return self.dataset_path("union")

    @property
    def eval_grid_path(self) -> Path:
        return self.dataset_path("eval_grid")

    def eval_zero_shot_path(self, lang: str) -> Path:
        return self.dataset_path(f"eval_zero_shot_{lang}")

    def teacher_dir(self, name: str) -> Path:
        return self.out_dir / "teachers" / name

    def store_path(self, name: str) -> Path:
        return self.out_dir / "logits" / f"{name}.logits"

    def student_dir(self, name: str) -> Path:
        return self.out_dir / "students" / name

    @property
    def reports_dir(self) -> Path:
        return self.out_dir / "reports"


def _parse_value(key: str, raw, from_file: bool = False):
    """``raw``, a flag's text or, with ``from_file``, a config file's JSON
    value, parsed for ``key``. A float must be finite: ``float`` and
    ``json.loads`` both accept NaN and infinities, which no setting means and
    no artifact can record. No number is a JSON boolean, no integer a
    fractional float, no string another JSON value and no file's boolean
    anything but a JSON boolean, which ``int``, ``float``, ``str`` and
    ``_parse_bool`` would convert."""
    parse = SCHEMA[key][0]
    try:
        if parse in (int, float) and isinstance(raw, bool):
            raise TypeError("a boolean is not a number")
        if parse is str and not isinstance(raw, str):
            raise TypeError("not a string")
        if parse is _parse_bool and from_file and not isinstance(raw, bool):
            raise TypeError("not a JSON boolean")
        if parse is int and isinstance(raw, float) and not raw.is_integer():
            raise ValueError("not an integer")
        value = parse(raw)
        if parse is int:
            float(value)   # an integer past float range overflows any product with a float
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"bad value {raw!r} for {key} ({exc})") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidConfig(f"bad value {raw!r} for {key} (not a finite number)")
    return value


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """The settings ``args`` give, each from the last of: its field's
    default, the subcommand's default (``add_config_flags``' ``settings``),
    the ``--config`` file and its flag; with ``args.seed`` and ``args.out_dir``."""
    values = {key: default for key, (_, default, _) in SCHEMA.items()}
    values.update(getattr(args, "setting_defaults", {}))
    config_path = getattr(args, "config", None)
    if config_path:
        path = _require(Path(config_path), "config file")
        for key, raw in cp.read_json(path, "config file", dict.items):
            if key not in SCHEMA:
                raise InvalidConfig(f"unknown config key {key!r}")
            values[key] = _parse_value(key, raw, from_file=True)
    for key in SCHEMA:
        supplied = getattr(args, key, None)
        if supplied is not None:
            values[key] = _parse_value(key, supplied)
    if not args.out_dir:
        raise InvalidConfig("--out-dir must name a directory, got ''")
    return PipelineConfig(values=values, seed=args.seed, out_dir=Path(args.out_dir))


def _require(path: Path, what: str) -> Path:
    if not Path(path).is_file():
        raise MissingArtifact(f"{what}: {path}")
    return Path(path)


def _output_path(path: str | Path) -> Path:
    """An operation's resolved output ``path``, from a flag or a default, as
    a ``Path``; refused when it names a directory."""
    if Path(path).is_dir():
        raise InvalidConfig(f"output path {path} names a directory")
    return Path(path)


def _read_dataset(path: Path, what: str) -> list[cp.Sample]:
    """The samples of the dataset file ``path``, which must hold one at least."""
    samples = cp.read_samples(_require(path, what))
    if not samples:
        raise InvalidConfig(f"{what} {path} holds no sample")
    return samples


def _report_paths(path: str | Path | None) -> tuple[Path, Path] | None:
    """A report's JSON ``path`` and its ``.txt`` path, each checked by ``_output_path``."""
    if path is None:
        return None
    return _output_path(path), _output_path(str(path).removesuffix(".json") + ".txt")


def _write_with_text(json_path: Path, text_path: Path, obj, text: str) -> None:
    """``obj`` as JSON and ``text`` at a report's two ``_report_paths``."""
    json_path.parent.mkdir(parents=True, exist_ok=True)
    cp.write_json(json_path, obj)
    cp.write_file(text_path, text + "\n")


# ---------------------------------------------------------------------------
# Operations (shared by subcommands and tests)
# ---------------------------------------------------------------------------


def op_generate(cfg: PipelineConfig) -> Path:
    languages = cfg.languages + ([cfg.zero_shot_language] if cfg.zero_shot_language else [])
    records = cp.generate_synthetic_corpus(cfg.data.records, languages, cfg.noise, cfg.task)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    cp.write_corpus(records, cfg.corpus_path)
    digest = cp.sha256_file(cfg.corpus_path)
    cp.write_file(f"{cfg.corpus_path}.sha256", digest + "\n")
    print(f"generate: {len(records)} records, languages {','.join(languages)} "
          f"-> {cfg.corpus_path}")
    print(f"generate: digest {digest}")
    return cfg.corpus_path


# A token gets an embedding row only when this many training records hold
# it: a row that one record alone trains can only memorise that record.
MIN_TOKEN_RECORDS = 2


def _write_vocab(cfg: PipelineConfig, train_records) -> None:
    """Write the vocabulary of the tokens found in at least
    ``MIN_TOKEN_RECORDS`` of ``train_records``, a token counting once per
    record over its renderings in ``cfg.languages``; any other token shares
    the hash buckets."""
    records_with: Counter[str] = Counter()
    for record in train_records:
        tokens: set[str] = set()
        for lang in cfg.languages:
            rendering = record.renderings.get(lang)
            if rendering is not None:
                tokens.update(rendering.passage_tokens)
                tokens.update(rendering.question_tokens)
        records_with.update(tokens)
    kept = (token for token, count in records_with.items() if count >= MIN_TOKEN_RECORDS)
    cp.write_json(cfg.vocab_path, Vocabulary(kept).to_dict())


def op_build(cfg: PipelineConfig, mode: str, language: str | None = None) -> dict:
    """Write each dataset of ``mode``, and the evaluation sets, to
    ``cfg.dataset_path`` of its name, and a meta with their sizes. The
    arguments are checked before anything is read or written."""
    if mode not in ("lbmrc", "mixmrc", "translate-train"):
        raise InvalidConfig(f"unknown build mode {mode!r}")
    if mode == "translate-train" and language not in cfg.languages:
        raise InvalidConfig(f"build --mode translate-train needs --language, one of the "
                            f"training languages {cfg.languages}; got {language!r}")
    if mode != "translate-train" and language is not None:
        raise InvalidConfig(f"build --language applies only to --mode translate-train, "
                            f"not {mode}")
    records = cp.read_corpus(_require(cfg.corpus_path, "corpus"))
    train_records, eval_records = cp.split_records(records, cfg.data.eval_fraction)
    cfg.datasets_dir.mkdir(parents=True, exist_ok=True)
    _write_vocab(cfg, train_records)
    if mode == "lbmrc":
        result = cp.build_language_branches(
            train_records, cfg.languages, augment_with_source=cfg.data.augment_source
        )
        datasets = {f"branch_{lang}": branch for lang, branch in result.branches.items()}
        datasets["union"] = cp.union_of_branches(result.branches)
    elif mode == "mixmrc":
        result = cp.build_mix_dataset(train_records, cfg.languages, cfg.seed)
        datasets = {"mix": result.samples}
    else:
        result = cp.build_translate_train(train_records, language)
        datasets = {f"tt_{language}": result.samples}
    eval_sets = {"eval_grid": cp.build_mix_dataset(eval_records, cfg.languages, cfg.seed).samples}
    zz = cfg.zero_shot_language
    if zz:
        eval_sets[f"eval_zero_shot_{zz}"] = cp.build_translate_train(eval_records, zz).samples
    for name, samples in {**datasets, **eval_sets}.items():
        cp.write_samples(samples, cfg.dataset_path(name))

    meta = {
        "mode": mode,
        "train_records": len(train_records),
        "eval_records": len(eval_records),
        "sizes": {name: len(samples) for name, samples in datasets.items()},
        "missing": dict(result.missing),
        "unrecoverable": dict(result.unrecoverable),
        **{name: len(samples) for name, samples in eval_sets.items()},
    }
    # one meta per dataset, so each translate-train language keeps its own
    dataset = f"tt_{language}" if mode == "translate-train" else mode
    cp.write_json(cfg.datasets_dir / f"build_meta_{dataset}.json", meta)
    for name, size in sorted(meta["sizes"].items()):
        print(f"build: {name} -> {size} samples")
    print(f"build: skipped {result.skipped} renderings "
          f"(missing {sum(meta['missing'].values())}, "
          f"unrecoverable {sum(meta['unrecoverable'].values())})")
    return meta


def _check_resume(run_dir: Path, key: dict) -> RunManifest | None:
    """The manifest in ``run_dir`` if it records ``key``, the rerun's
    ``run_key``, or None when there is none; any other manifest is refused."""
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        return None
    raw = cp.read_json(manifest_path, "run manifest", dict)
    changed = [name for name, value in key.items() if raw.get(name) != value]
    if changed:
        raise InvalidConfig(f"run directory {run_dir} holds a manifest with a different "
                            f"{', '.join(changed)}; choose a fresh --out-dir or matching settings")
    with malformed_as_invalid(manifest_path, "run manifest"):
        return RunManifest(**raw)


def _train_stage(cfg: PipelineConfig, run_name: str, run_dir: Path, dataset: Path,
                 train_cfg: TrainConfig, stores: dict[str, LogitStore] | None = None,
                 distill: DistillConfig | None = None) -> RunManifest:
    """Train one run on ``dataset`` with the vocabulary ``build`` wrote into
    ``run_dir``: a teacher when ``stores`` is None, else a student distilled
    from them under ``distill``. A finished run whose manifest ``_check_resume``
    accepts is kept, since training it again would give the same bytes."""
    vocab_path = _require(cfg.vocab_path, "vocabulary")
    vocab = cp.read_json(vocab_path, "vocabulary", Vocabulary.from_dict)
    samples = cp.read_samples(dataset)
    digest = cp.sha256_file(dataset)
    vocab_digest = cp.sha256_file(vocab_path)
    key = run_key(train_cfg, cfg.model, digest, vocab_digest, stores, distill)
    previous = _check_resume(run_dir, key)
    if previous is not None and (run_dir / "final.ckpt").exists():
        return previous
    _, manifest = train(samples, vocab, cfg.model, train_cfg, run_name, out_dir=run_dir,
                        stores=stores, distill=distill, dataset_digest=digest,
                        vocab_digest=vocab_digest)
    return manifest


def op_train_teacher(cfg: PipelineConfig, branch: str | None = None,
                     dataset: Path | None = None, run_name: str | None = None,
                     seed: int | None = None) -> Path:
    if branch is not None and dataset is not None:
        raise InvalidConfig("train-teacher takes --branch or --dataset, not both: a teacher "
                            "is named by its branch and trained on that branch's dataset")
    if dataset is None:
        if branch is None:
            raise InvalidConfig("train-teacher needs --branch or --dataset")
        dataset = cfg.dataset_path(f"branch_{branch}")
    run_name = run_name or branch or Path(dataset).stem
    run_dir = cfg.teacher_dir(run_name)
    dataset = _require(Path(dataset), "training dataset")
    train_cfg = cfg.train if seed is None else replace(cfg.train, seed=seed)
    manifest = _train_stage(cfg, run_name, run_dir, dataset, train_cfg)
    first, last = manifest.epoch_losses[0], manifest.epoch_losses[-1]
    print(f"train-teacher {run_name}: {manifest.n_samples} samples "
          f"({manifest.skipped_samples} skipped), "
          f"loss {first['total']:.4f} -> {last['total']:.4f}")
    return run_dir


def op_dump_logits(cfg: PipelineConfig, teacher: str, model_path: Path | None = None,
                   dataset: Path | None = None, store_path: Path | None = None) -> Path:
    model_path = model_path or (cfg.teacher_dir(teacher) / "final.ckpt")
    dataset = dataset or cfg.union_path
    store_path = _output_path(store_path or cfg.store_path(teacher))
    model = load_model(_require(Path(model_path), "teacher checkpoint"))
    samples = _read_dataset(Path(dataset), "distillation dataset")
    store_path.parent.mkdir(parents=True, exist_ok=True)
    written, skipped = dump_teacher_logits(model, samples, store_path, teacher)
    print(f"dump-logits {teacher}: {written} records ({skipped} skipped) -> {store_path}")
    return store_path


def op_distill(cfg: PipelineConfig, run_name: str | None = None,
               strategy: str | None = None, teachers: list[str] | None = None,
               dataset: Path | None = None) -> Path:
    teachers = teachers or cfg.languages
    if len(set(teachers)) != len(teachers):
        raise InvalidConfig(f"teacher ids {teachers} repeat a teacher")
    strategy = strategy or cfg.distill.strategy
    run_name = run_name or ("student_imp" if strategy == "impurity" else "student_hyper")
    run_dir = cfg.student_dir(run_name)
    dataset = _require(Path(dataset or cfg.union_path), "distillation dataset")
    stores = {t: LogitStore(_require(cfg.store_path(t), f"logit store for {t!r}"))
              for t in teachers}
    distill = replace(cfg.distill, strategy=strategy)
    manifest = _train_stage(cfg, run_name, run_dir, dataset, cfg.train, stores, distill)
    first, last = manifest.epoch_losses[0], manifest.epoch_losses[-1]
    print(f"distill {run_name}: teachers={sorted(teachers)} strategy={strategy} "
          f"loss {first['total']:.4f} -> {last['total']:.4f}")
    return run_dir


def op_evaluate(cfg: PipelineConfig, model_path: Path, dataset: Path | None = None,
                zero_shot_language: str | None = None,
                report_path: Path | None = None, name: str = "run") -> ev.EvalReport:
    if zero_shot_language:
        dataset = cfg.eval_zero_shot_path(zero_shot_language)
    report_paths = _report_paths(report_path)
    model = load_model(_require(Path(model_path), "model checkpoint"))
    samples = _read_dataset(Path(dataset or cfg.eval_grid_path), "evaluation dataset")
    report = ev.evaluate(model, samples, cfg.eval_config)
    if report_paths is not None:
        _write_with_text(*report_paths, report.to_dict(), ev.render_report(report, name))
    print(f"evaluate {name}: em={report.overall_em:.4f} f1={report.overall_f1:.4f} "
          f"n={report.n} skips={report.skips}")
    return report


def op_compare(reports: Iterable[ev.EvalReport], names: list[str], baseline: int = 0,
               out_path: Path | None = None) -> dict:
    """One table of ``reports``, which are taken only after ``out_path``
    and its ``.txt`` rendering's path are checked."""
    out_paths = _report_paths(out_path)
    comparison = ev.compare_runs(list(reports), names, baseline)
    text = ev.render_comparison(comparison)
    if out_paths is not None:
        _write_with_text(*out_paths, comparison, text)
    print(text)
    return comparison


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _branch_teachers(cfg: PipelineConfig) -> dict[str, Path]:
    """Build the language branches, train one teacher on each and dump its
    logits over the union; returns the teachers' run directories keyed by
    their report names, ``teacher_<lang>``."""
    op_build(cfg, "lbmrc")
    runs = {}
    for lang in cfg.languages:
        runs[f"teacher_{lang}"] = op_train_teacher(cfg, branch=lang)
        op_dump_logits(cfg, lang)
    return runs


def _report_runs(cfg: PipelineConfig, runs: dict[str, Path],
                 zero_shot: bool = False) -> dict[str, ev.EvalReport]:
    """Evaluate each run's final checkpoint on the grid into
    ``reports/<name>.json`` and, with ``zero_shot`` and a held-out language
    ``zz``, on that language into ``reports/<name>_zero_shot_<zz>.json``
    (row name ``<name>_zero_shot``). Returns the reports keyed by file stem."""
    zz = cfg.zero_shot_language if zero_shot else None
    reports = {}
    for name, run_dir in runs.items():
        ckpt = run_dir / "final.ckpt"
        reports[name] = op_evaluate(cfg, ckpt, report_path=cfg.reports_dir / f"{name}.json",
                                    name=name)
        if zz:
            stem = f"{name}_zero_shot_{zz}"
            reports[stem] = op_evaluate(cfg, ckpt, zero_shot_language=zz,
                                        report_path=cfg.reports_dir / f"{stem}.json",
                                        name=f"{name}_zero_shot")
    return reports


def run_pipeline(cfg: PipelineConfig, strategies: tuple[str, ...] = ("fixed", "impurity")
                 ) -> dict[str, ev.EvalReport]:
    """Full pipeline on one output directory, corpus through the reports of
    the branch teachers and of one student per ``train.strategy`` value in
    ``strategies``, each under the name ``op_distill`` gives it; returns
    ``_report_runs``' reports, students' zero-shot ones included. Each
    strategy is checked by ``DistillConfig`` before any stage runs."""
    strategies = [replace(cfg.distill, strategy=s).strategy for s in strategies]
    op_generate(cfg)
    reports = _report_runs(cfg, _branch_teachers(cfg))
    students = [op_distill(cfg, strategy=strategy) for strategy in strategies]
    return {**reports, **_report_runs(cfg, {s.name: s for s in students}, zero_shot=True)}


def run_translate_train_baseline(cfg: PipelineConfig) -> ev.EvalReport:
    """Per-language translate-train models scored as one grid report.

    Each grid cell (p, q) is scored by the model trained on language p, the
    most favorable reading for this baseline.
    """
    grid_samples = _read_dataset(cfg.eval_grid_path, "evaluation grid")
    pairs, skipped = [], 0
    for lang in cfg.languages:
        op_build(cfg, "translate-train", language=lang)
        run_dir = op_train_teacher(
            cfg, dataset=cfg.dataset_path(f"tt_{lang}"), run_name=f"tt_{lang}"
        )
        model = load_model(_require(run_dir / "final.ckpt", "model checkpoint"))
        subset = [s for s in grid_samples if s.passage_lang == lang]
        lang_pairs, lang_skipped = ev.predict(model, subset, cfg.eval_config)
        pairs += lang_pairs
        skipped += lang_skipped
    return ev.score(pairs, skipped)


def noise_study(cfg: PipelineConfig, seeds) -> list[tuple[float, float]]:
    """For each seed, ``run_pipeline`` with the impurity student and the
    translate-train baseline under ``<out-dir>/seed<seed>``; returns each
    seed's (student, translate-train) macro-EM pair. Every seed's config is
    made, and its seed checked, before any stage runs."""
    runs = [replace(cfg, seed=seed, out_dir=cfg.out_dir / f"seed{seed}") for seed in seeds]
    pairs = []
    for run in runs:
        student = run_pipeline(run, ("impurity",))["student_imp"]
        pairs.append((student.macro_em(), run_translate_train_baseline(run).macro_em()))
    return pairs


def op_ablate(cfg: PipelineConfig) -> dict:
    """Teacher-set and strategy ablations over one prepared output directory.

    A teacher already trained there is reused only when ``_check_resume``
    accepts its run directory; one with other settings stops the ablation
    with that function's ``InvalidConfig``."""
    _require(cfg.corpus_path, "corpus (run generate first)")
    teachers = _branch_teachers(cfg)

    # teachers trained on the mixed dataset, one per branch slot
    op_build(cfg, "mixmrc")
    mix_ids = [f"mix_{i}" for i in range(len(cfg.languages))]
    for i, name in enumerate(mix_ids):
        op_train_teacher(cfg, dataset=cfg.dataset_path("mix"), run_name=name, seed=cfg.seed + 1 + i)
        op_dump_logits(cfg, name)

    settings: list[tuple[str, str, list[str]]] = [
        ("ours_hyper", "fixed", cfg.languages),
        ("ours_imp", "impurity", cfg.languages),
    ]
    for lang in cfg.languages[1:]:
        settings.append((f"wo_{lang}", "impurity", [x for x in cfg.languages if x != lang]))
    settings.append((f"w_{cfg.source_language}_only", "impurity", [cfg.source_language]))
    settings.append(("w_mix", "impurity", mix_ids))
    students = {run_name: op_distill(cfg, run_name=run_name, strategy=strategy,
                                     teachers=teacher_set)
                for run_name, strategy, teacher_set in settings}

    reports = {**_report_runs(cfg, teachers), **_report_runs(cfg, students)}
    names = list(reports)
    return op_compare(list(reports.values()), names, names.index("ours_imp"),
                      cfg.reports_dir / "ablation.json")


def op_pipeline(cfg: PipelineConfig) -> dict[str, ev.EvalReport]:
    """``run_pipeline`` with both students, then one table of the teachers and
    students on the grid, with ``student_imp`` as baseline, and each student's
    zero-shot numbers; returns the pipeline's reports."""
    start = time.monotonic()
    reports = run_pipeline(cfg)
    zero_shot = f"_zero_shot_{cfg.zero_shot_language}"
    grid = {name: report for name, report in reports.items() if not name.endswith(zero_shot)}
    names = list(grid)
    print()
    op_compare(list(grid.values()), names, baseline=names.index("student_imp"),
               out_path=cfg.reports_dir / "pipeline_comparison.json")

    print()
    for name, report in reports.items():
        if name.endswith(zero_shot):
            print(f"zero-shot {cfg.zero_shot_language} ({name.removesuffix(zero_shot)}): "
                  f"EM {report.overall_em:.4f}  F1 {report.overall_f1:.4f}")
    print(f"\ntotal wall time: {time.monotonic() - start:.0f}s")
    print(f"artifacts under: {cfg.out_dir}")
    return reports


def op_noise_study(cfg: PipelineConfig, seeds: str) -> list[tuple[float, float]]:
    """``noise_study`` over the comma-separated ``seeds``, printing each
    seed's macro-EM pair and their means; returns the pairs, or exits 1 when
    the student's mean is below translate-train's."""
    try:
        seed_list = [int(s) for s in seeds.split(",")]
    except ValueError as exc:
        raise InvalidConfig(f"bad value {seeds!r} for --seeds ({exc})") from exc
    pairs = noise_study(cfg, seed_list)
    for seed, (student, baseline) in zip(seed_list, pairs):
        print(f"seed {seed}: student macro-EM {student:.4f} | "
              f"translate-train macro-EM {baseline:.4f}")
    student_mean, baseline_mean = np.mean(pairs, axis=0)
    print(f"mean over {len(pairs)} seeds: "
          f"student {student_mean:.4f} vs translate-train {baseline_mean:.4f}")
    confirmed = student_mean >= baseline_mean
    print("robustness direction " + ("CONFIRMED" if confirmed else "NOT confirmed"))
    if not confirmed:
        raise SystemExit(1)
    return pairs


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def add_config_flags(parser: argparse.ArgumentParser, seed: int = 0, out_dir: str = "runs",
                     **settings) -> None:
    """``--config``, ``--seed``, ``--out-dir`` and one flag per setting,
    named by its ``SCHEMA`` key, with the help and default of the field that
    declares it: every setting ``resolve_config`` reads. ``settings``, keyed
    by ``SCHEMA`` key, are the subcommand's own defaults, which its help
    shows; they are kept apart from the flags as ``setting_defaults``, so a
    ``--config`` file's key wins over them and a flag over both."""
    parser.add_argument("--config", help="JSON config file with flat dotted keys")
    parser.add_argument("--seed", type=int, default=seed,
                        help="root seed for all randomness (default %(default)s)")
    parser.add_argument("--out-dir", dest="out_dir", default=out_dir,
                        help="directory holding every pipeline artifact (default %(default)s)")
    for key, (_, default, help_text) in SCHEMA.items():
        # argparse %-formats help strings, so a literal % must be doubled
        parser.add_argument(f"--{key}", dest=key, metavar="V",
                            help=f"{help_text} (default {settings.get(key, default)})"
                            .replace("%", "%%"))
    parser.set_defaults(setting_defaults=settings)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser. Each subcommand binds ``run(cfg, args)``, a call of
    its ``op_*`` with the resolved config and the subcommand's own flags."""
    parser = argparse.ArgumentParser(
        prog="branchdistill",
        description="Language-branch training and multi-teacher distillation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate the synthetic aligned corpus")
    add_config_flags(p)
    p.set_defaults(run=lambda cfg, a: op_generate(cfg))

    p = sub.add_parser("build", help="build branch / mixed / translate-train datasets")
    p.add_argument("--mode", choices=["lbmrc", "mixmrc", "translate-train"], default="lbmrc",
                   help="dataset construction strategy")
    p.add_argument("--language", default=None, help="target language for translate-train")
    add_config_flags(p)
    p.set_defaults(run=lambda cfg, a: op_build(cfg, a.mode, a.language))

    p = sub.add_parser("train-teacher", help="train one branch model")
    p.add_argument("--branch", default=None, help="branch language to train on")
    p.add_argument("--dataset", default=None, help="explicit dataset path")
    p.add_argument("--run-name", dest="run_name", default=None)
    add_config_flags(p)
    p.set_defaults(run=lambda cfg, a: op_train_teacher(cfg, a.branch, a.dataset, a.run_name))

    p = sub.add_parser("dump-logits", help="precompute one teacher's logits")
    p.add_argument("--teacher", required=True, help="teacher name (run directory under teachers/)")
    p.add_argument("--model", default=None, help="explicit checkpoint path")
    p.add_argument("--dataset", default=None, help="dataset to cover (default: the union)")
    p.add_argument("--store", default=None, help="explicit store output path")
    add_config_flags(p)
    p.set_defaults(run=lambda cfg, a: op_dump_logits(cfg, a.teacher, a.model, a.dataset, a.store))

    p = sub.add_parser("distill", help="train the multilingual student")
    p.add_argument("--teachers", default=None, help="comma-separated teacher subset")
    p.add_argument("--dataset", default=None, help="explicit dataset path")
    p.add_argument("--run-name", dest="run_name", default=None)
    add_config_flags(p)
    p.set_defaults(run=lambda cfg, a: op_distill(
        cfg, a.run_name, teachers=a.teachers.split(",") if a.teachers else None,
        dataset=a.dataset))

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    p.add_argument("--model", required=True, help="checkpoint to evaluate")
    p.add_argument("--dataset", default=None, help="dataset path (default: the eval grid; "
                   "the held-out language's is datasets/eval_zero_shot_<lang>.jsonl)")
    p.add_argument("--report", default=None, help="write the report JSON here")
    p.add_argument("--name", default="run", help="row name in the rendered table")
    add_config_flags(p)
    p.set_defaults(run=lambda cfg, a: op_evaluate(
        cfg, a.model, a.dataset, report_path=a.report, name=a.name))

    p = sub.add_parser("ablate", help="run the teacher-set and strategy ablation matrix")
    add_config_flags(p)
    p.set_defaults(run=lambda cfg, a: op_ablate(cfg))

    p = sub.add_parser("pipeline", help="run every stage and compare the teachers and students")
    add_config_flags(p, seed=7, out_dir="runs/pipeline")
    p.set_defaults(run=lambda cfg, a: op_pipeline(cfg))

    p = sub.add_parser("noise-study", help="compare the student against translate-train "
                       "on noisy corpora over several seeds")
    p.add_argument("--seeds", default="11,12,13", help="comma-separated seeds")
    add_config_flags(p, out_dir="runs/noise_study",
                     **{"corpus.records": 300, "noise.token_drop_prob": 0.1,
                        "noise.token_swap_prob": 0.1, "noise.marker_destroy_prob": 0.1})
    p.set_defaults(run=lambda cfg, a: op_noise_study(cfg, a.seeds))

    p = sub.add_parser("compare", help="align several report JSONs into one table")
    p.add_argument("--reports", nargs="+", required=True, help="report JSON paths")
    p.add_argument("--names", default=None, help="comma-separated row names")
    p.add_argument("--baseline", type=int, default=0, help="index of the baseline row")
    p.add_argument("--out", default=None, help="write the comparison JSON here")
    add_config_flags(p)
    # a generator, so no report is read before op_compare checks the output path
    p.set_defaults(run=lambda cfg, a: op_compare(
        out_path=a.out or cfg.reports_dir / "comparison.json",
        reports=(ev.EvalReport.load(_require(Path(path), "report")) for path in a.reports),
        names=a.names.split(",") if a.names else [Path(path).stem for path in a.reports],
        baseline=a.baseline))
    return parser


def guarded(call) -> int:
    """Exit code of ``call()``, an entry point's work: the code it returns or
    exits with, 2 or 3 with one line on stderr for a typed error, or 1 with
    the traceback of any other."""
    try:
        return call()
    except SystemExit as exc:   # argparse's --help and flag errors, noise-study's verdict
        return int(exc.code or 0)
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:   # ``MissingArtifact`` among them
        print(f"missing artifact: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 1


def main(argv=None) -> int:
    def run() -> int:
        args = build_parser().parse_args(argv)
        args.run(resolve_config(args), args)
        return 0

    return guarded(run)


if __name__ == "__main__":
    sys.exit(main())
