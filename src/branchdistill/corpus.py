"""Corpus data model, dataset builders, and the synthetic corpus generator.

An aligned record holds parallel renderings of one QA instance in several
languages. Builders turn aligned records into flat training samples:

* language branches: passages and answers in one language, questions in all
  configured languages,
* mixed dataset: the full passage-language x question-language cross product
  in one flat shuffled list,
* translate-train: passage and question both in a single language.

The synthetic generator produces aligned records for a marker-location task
that a small encoder can learn: each passage contains one cue token followed
by a 1-3 token answer and a terminator token; cue and terminator tokens are
shared across languages (like named entities surviving translation), while
content and question words are mapped through a per-language bijection.
Non-source renderings pass through the mark -> corrupt -> recover pipeline,
so translation noise can destroy answer markers and make a rendering
unusable exactly as in the real construction process.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, InvalidRecord, Unrecoverable, malformed_as_invalid

ANSWER_OPEN = "⟦"   # reserved marker, cannot appear in generated text
ANSWER_CLOSE = "⟧"
RESERVED_TOKENS = frozenset({ANSWER_OPEN, ANSWER_CLOSE})


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rendering:
    """One language's passage/question pair with an optional answer span.

    ``answer_span`` is an inclusive (start, end) token index pair into
    ``passage_tokens``; None marks a rendering whose span could not be
    recovered after corruption.
    """

    passage_tokens: tuple[str, ...]
    question_tokens: tuple[str, ...]
    answer_span: tuple[int, int] | None

    def validate(self) -> None:
        if self.answer_span is not None:
            start, end = self.answer_span
            if not (0 <= start <= end < len(self.passage_tokens)):
                raise InvalidRecord(
                    f"answer span {self.answer_span} out of bounds for "
                    f"passage of length {len(self.passage_tokens)}"
                )


@dataclass(frozen=True)
class AlignedRecord:
    """One logical QA instance rendered in several languages."""

    id: str
    source_language: str
    renderings: dict[str, Rendering]

    def validate(self) -> None:
        if self.source_language not in self.renderings:
            raise InvalidRecord(
                f"record {self.id} lacks its source language "
                f"{self.source_language!r}"
            )
        for rendering in self.renderings.values():
            rendering.validate()


@dataclass(frozen=True)
class Sample:
    """A single training instance: one passage language, one question language."""

    id: str
    question_tokens: tuple[str, ...]
    passage_tokens: tuple[str, ...]
    gold_start: int
    gold_end: int
    passage_lang: str
    question_lang: str

    def validate(self) -> None:
        if not (0 <= self.gold_start <= self.gold_end < len(self.passage_tokens)):
            raise InvalidRecord(
                f"sample {self.id}: gold span ({self.gold_start}, {self.gold_end}) "
                f"out of bounds for passage of length {len(self.passage_tokens)}"
            )

    def key(self) -> str:
        """Identity of a sample inside a multi-branch union."""
        return f"{self.id}|{self.passage_lang}|{self.question_lang}"


@dataclass
class LanguageBranch:
    passage_lang: str
    samples: list[Sample] = field(default_factory=list)


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption applied to non-source renderings.

    Drops and swaps act on ordinary tokens only; answer markers are touched
    solely through ``marker_destroy_prob``, so the number of unrecoverable
    renderings is exactly binomial in that probability when the token noise
    is zero.
    """

    token_drop_prob: float = 0.0
    token_swap_prob: float = 0.0
    marker_destroy_prob: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        for name in ("token_drop_prob", "token_swap_prob", "marker_destroy_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise InvalidConfig(f"{name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class TaskSpec:
    """Shape of the synthetic marker-location task.

    Cue, terminator, and answer tokens are shared across languages (answers
    behave like named entities that survive translation verbatim); body
    content and question words go through the per-language bijection.
    """

    content_vocab_size: int = 50
    rare_vocab_size: int = 2000
    rare_prob: float = 0.5
    answer_vocab_size: int = 20
    cue_count: int = 8
    question_word_count: int = 5
    passage_min: int = 10
    passage_max: int = 20
    answer_max_len: int = 3
    seed: int = 0

    def validate(self) -> None:
        if self.content_vocab_size < 1 or self.cue_count < 1 or self.answer_vocab_size < 1:
            raise InvalidConfig("content, answer, and cue vocabularies must be non-empty")
        if self.rare_vocab_size < 0 or not (0.0 <= self.rare_prob <= 1.0):
            raise InvalidConfig("bad rare-token tail configuration")
        if not (1 <= self.passage_min <= self.passage_max):
            raise InvalidConfig(
                f"bad passage length range [{self.passage_min}, {self.passage_max}]"
            )
        if not (1 <= self.answer_max_len):
            raise InvalidConfig("answer_max_len must be >= 1")


# ---------------------------------------------------------------------------
# Answer marking
# ---------------------------------------------------------------------------


def mark_answer(rendering: Rendering) -> list[str]:
    """Insert the reserved marker pair around the rendering's answer span."""
    if rendering.answer_span is None:
        raise InvalidRecord("cannot mark a rendering without an answer span")
    rendering.validate()
    start, end = rendering.answer_span
    tokens = list(rendering.passage_tokens)
    return tokens[:start] + [ANSWER_OPEN] + tokens[start : end + 1] + [ANSWER_CLOSE] + tokens[end + 1 :]


def recover_answer(marked_tokens) -> tuple[list[str], tuple[int, int]]:
    """Strip the marker pair and return (clean tokens, inclusive span).

    Raises ``Unrecoverable`` when the markers are absent, duplicated,
    crossed, or enclose no tokens; callers discard such renderings.
    """
    marked = list(marked_tokens)
    opens = [i for i, t in enumerate(marked) if t == ANSWER_OPEN]
    closes = [i for i, t in enumerate(marked) if t == ANSWER_CLOSE]
    if len(opens) != 1 or len(closes) != 1:
        raise Unrecoverable(
            f"expected exactly one marker pair, found {len(opens)} open / {len(closes)} close"
        )
    o, c = opens[0], closes[0]
    if c <= o + 1:
        raise Unrecoverable("markers are crossed or enclose no tokens")
    tokens = marked[:o] + marked[o + 1 : c] + marked[c + 1 :]
    return tokens, (o, c - 2)


def strip_markers(tokens) -> list[str]:
    return [t for t in tokens if t not in RESERVED_TOKENS]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


@dataclass
class BuildResult:
    """Builder output plus the skip accounting needed to audit the discard rule."""

    branches: dict[str, LanguageBranch] = field(default_factory=dict)
    samples: list[Sample] = field(default_factory=list)
    missing: Counter = field(default_factory=Counter)
    unrecoverable: Counter = field(default_factory=Counter)

    @property
    def skipped(self) -> int:
        return sum(self.missing.values()) + sum(self.unrecoverable.values())


def _rendering_status(records, languages):
    """Per (record, language) usability: 'ok', 'unrecoverable', or 'missing'."""
    status = []
    for record in records:
        record.validate()
        row = {}
        for lang in languages:
            rendering = record.renderings.get(lang)
            if rendering is None:
                row[lang] = "missing"
            elif rendering.answer_span is None:
                row[lang] = "unrecoverable"
            else:
                row[lang] = "ok"
        status.append(row)
    return status


def _count_skips(status, languages, result: BuildResult) -> None:
    for row in status:
        for lang in languages:
            if row[lang] == "missing":
                result.missing[lang] += 1
            elif row[lang] == "unrecoverable":
                result.unrecoverable[lang] += 1


def _make_sample(record: AlignedRecord, passage_lang: str, question_lang: str) -> Sample:
    passage = record.renderings[passage_lang]
    question = record.renderings[question_lang]
    start, end = passage.answer_span
    sample = Sample(
        id=record.id,
        question_tokens=tuple(question.question_tokens),
        passage_tokens=tuple(passage.passage_tokens),
        gold_start=start,
        gold_end=end,
        passage_lang=passage_lang,
        question_lang=question_lang,
    )
    sample.validate()
    return sample


def build_language_branches(records, languages, augment_with_source: bool = False) -> BuildResult:
    """Build one branch per language: passages in that language, questions in all.

    A rendering unusable in one language is skipped there but the record stays
    usable in the other branches; question tokens only require the rendering
    to exist. With ``augment_with_source`` every non-source branch also
    receives the full source-language branch.
    """
    languages = list(languages)
    if not languages:
        raise InvalidConfig("language list must be non-empty")
    records = list(records)
    status = _rendering_status(records, languages)
    result = BuildResult()
    _count_skips(status, languages, result)

    for lang in languages:
        branch = LanguageBranch(passage_lang=lang)
        for record, row in zip(records, status):
            if row[lang] != "ok":
                continue
            for question_lang in languages:
                if row[question_lang] == "missing":
                    continue
                branch.samples.append(_make_sample(record, lang, question_lang))
        result.branches[lang] = branch

    if augment_with_source:
        sources = {r.source_language for r in records}
        if len(sources) > 1:
            raise InvalidConfig(f"augmentation needs a single source language, got {sorted(sources)}")
        source = sources.pop() if sources else None
        if source not in result.branches:
            raise InvalidConfig(f"source language {source!r} is not among the built branches")
        source_samples = list(result.branches[source].samples)
        for lang, branch in result.branches.items():
            if lang != source:
                branch.samples.extend(source_samples)
    return result


def build_mix_dataset(records, languages, seed: int) -> BuildResult:
    """Flat cross-product dataset: every usable passage language paired with
    every available question language, reproducibly shuffled by ``seed``."""
    languages = list(languages)
    if not languages:
        raise InvalidConfig("language list must be non-empty")
    records = list(records)
    status = _rendering_status(records, languages)
    result = BuildResult()
    _count_skips(status, languages, result)

    samples = []
    for record, row in zip(records, status):
        for passage_lang in languages:
            if row[passage_lang] != "ok":
                continue
            for question_lang in languages:
                if row[question_lang] == "missing":
                    continue
                samples.append(_make_sample(record, passage_lang, question_lang))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6D69]))
    order = rng.permutation(len(samples))
    result.samples = [samples[i] for i in order]
    return result


def build_translate_train(records, language: str) -> BuildResult:
    """Single-language dataset: passage and question both in ``language``."""
    if not language:
        raise InvalidConfig("language must be non-empty")
    records = list(records)
    status = _rendering_status(records, [language])
    result = BuildResult()
    _count_skips(status, [language], result)
    for record, row in zip(records, status):
        if row[language] != "ok":
            continue
        result.samples.append(_make_sample(record, language, language))
    return result


def union_of_branches(branches: dict[str, LanguageBranch]) -> list[Sample]:
    """Multiset union of branches, deduplicated by (id, passage, question) key.

    Augmented branches contain copies of the source branch; without
    deduplication those samples would be silently double-weighted in the
    distillation dataset.
    """
    seen: set[str] = set()
    union: list[Sample] = []
    for lang in sorted(branches):
        for sample in branches[lang].samples:
            key = sample.key()
            if key not in seen:
                seen.add(key)
                union.append(sample)
    return union


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------


def _content_vocab(task: TaskSpec) -> list[str]:
    return [f"w{i:03d}" for i in range(task.content_vocab_size)]


def _rare_vocab(task: TaskSpec) -> list[str]:
    return [f"r{i:04d}" for i in range(task.rare_vocab_size)]


def _cue_vocab(task: TaskSpec) -> list[str]:
    return [f"cue{i}" for i in range(task.cue_count)]


def _answer_vocab(task: TaskSpec) -> list[str]:
    return [f"ans{i:02d}" for i in range(task.answer_vocab_size)]


def _question_words(task: TaskSpec) -> list[str]:
    base = ["what", "which", "where", "find", "locate", "name", "give", "show"]
    if task.question_word_count > len(base):
        base = base + [f"qw{i}" for i in range(task.question_word_count - len(base))]
    return base[: task.question_word_count]


ANSWER_TERMINATOR = "eoa"


def _invariant_tokens(task: TaskSpec) -> frozenset[str]:
    return (
        frozenset(_cue_vocab(task))
        | frozenset(_answer_vocab(task))
        | {ANSWER_TERMINATOR}
        | RESERVED_TOKENS
    )


def _translate_token(token: str, lang: str, invariant: frozenset[str]) -> str:
    return token if token in invariant else f"{lang}:{token}"


def _apply_noise(tokens: list[str], noise: NoiseSpec, rng: np.random.Generator) -> list[str]:
    """Drop/swap ordinary tokens, then possibly remove one answer marker."""
    kept = []
    for token in tokens:
        if token in RESERVED_TOKENS:
            kept.append(token)
        elif rng.random() >= noise.token_drop_prob:
            kept.append(token)
    i = 0
    while i < len(kept) - 1:
        a, b = kept[i], kept[i + 1]
        if a not in RESERVED_TOKENS and b not in RESERVED_TOKENS and rng.random() < noise.token_swap_prob:
            kept[i], kept[i + 1] = b, a
            i += 2
        else:
            i += 1
    destroy = rng.random() < noise.marker_destroy_prob
    if destroy:
        victim = ANSWER_OPEN if rng.integers(2) == 0 else ANSWER_CLOSE
        for j, token in enumerate(kept):
            if token == victim:
                del kept[j]
                break
    return kept


def generate_synthetic_corpus(
    n_records: int,
    languages,
    noise: NoiseSpec,
    task: TaskSpec,
) -> list[AlignedRecord]:
    """Generate aligned records for the marker-location task.

    The first language in ``languages`` is the clean source; every other
    rendering is a per-language vocabulary bijection of the marked source
    passage, corrupted per ``noise``, then passed through answer recovery.
    Renderings whose span cannot be recovered keep their tokens (markers
    stripped) but carry no answer span. Deterministic given the seeds in
    ``task`` and ``noise``.
    """
    languages = list(languages)
    if n_records < 1:
        raise InvalidConfig(f"n_records must be >= 1, got {n_records}")
    if not languages:
        raise InvalidConfig("language list must be non-empty")
    if len(set(languages)) != len(languages):
        raise InvalidConfig("language list contains duplicates")
    noise.validate()
    task.validate()

    source = languages[0]
    content = _content_vocab(task)
    rare = _rare_vocab(task)
    answers = _answer_vocab(task)
    cues = _cue_vocab(task)
    qwords = _question_words(task)
    invariant = _invariant_tokens(task)

    def body_token() -> str:
        # Zipf-style long tail: rare background types keep their embeddings
        # close to init, which is also what an unseen language looks like.
        if rare and rng_content.random() < task.rare_prob:
            return rare[int(rng_content.integers(len(rare)))]
        return content[int(rng_content.integers(len(content)))]

    rng_content = np.random.default_rng(np.random.SeedSequence([task.seed, 0x74]))
    rng_noise = np.random.default_rng(np.random.SeedSequence([noise.seed, 0x6E]))

    records = []
    for index in range(n_records):
        plen = int(rng_content.integers(task.passage_min, task.passage_max + 1))
        body = [body_token() for _ in range(plen)]
        cue = cues[int(rng_content.integers(len(cues)))]
        alen = int(rng_content.integers(1, task.answer_max_len + 1))
        answer = [answers[i] for i in rng_content.integers(len(answers), size=alen)]
        insert_at = int(rng_content.integers(0, plen + 1))
        passage = body[:insert_at] + [cue] + answer + [ANSWER_TERMINATOR] + body[insert_at:]
        span = (insert_at + 1, insert_at + alen)
        qw = [qwords[i] for i in rng_content.integers(len(qwords), size=2)]
        question = [qw[0], cue, qw[1]]

        renderings = {source: Rendering(tuple(passage), tuple(question), span)}
        source_marked = mark_answer(renderings[source])
        for lang in languages[1:]:
            translated = [_translate_token(t, lang, invariant) for t in source_marked]
            corrupted = _apply_noise(translated, noise, rng_noise)
            translated_question = tuple(_translate_token(t, lang, invariant) for t in question)
            try:
                clean, recovered_span = recover_answer(corrupted)
                renderings[lang] = Rendering(tuple(clean), translated_question, recovered_span)
            except Unrecoverable:
                renderings[lang] = Rendering(tuple(strip_markers(corrupted)), translated_question, None)

        record = AlignedRecord(id=f"r{index:06d}", source_language=source, renderings=renderings)
        record.validate()
        records.append(record)
    return records


def split_records(records, eval_fraction: float) -> tuple[list[AlignedRecord], list[AlignedRecord]]:
    """Deterministic train/eval split by record position."""
    if not (0.0 <= eval_fraction < 1.0):
        raise InvalidConfig(f"eval_fraction must be in [0, 1), got {eval_fraction}")
    records = list(records)
    n_eval = int(round(len(records) * eval_fraction))
    n_train = len(records) - n_eval
    return records[:n_train], records[n_train:]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _dump_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_corpus(records, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            renderings = {}
            for lang, r in record.renderings.items():
                span = r.answer_span
                renderings[lang] = {
                    "passage_tokens": list(r.passage_tokens),
                    "question_tokens": list(r.question_tokens),
                    "answer_start": None if span is None else span[0],
                    "answer_end": None if span is None else span[1],
                }
            fh.write(_dump_line({
                "id": record.id,
                "source_language": record.source_language,
                "renderings": renderings,
            }) + "\n")


def read_corpus(path) -> list[AlignedRecord]:
    path = Path(path)
    records = []
    with malformed_as_invalid(path, "corpus"), path.open("r", encoding="utf-8") as fh:
        for line in fh:
            raw = json.loads(line)
            renderings = {}
            for lang, r in raw["renderings"].items():
                start, end = r["answer_start"], r["answer_end"]
                if (start is None) != (end is None):
                    raise InvalidRecord(f"record {raw['id']}: half-open answer span")
                span = None if start is None else (int(start), int(end))
                renderings[lang] = Rendering(
                    tuple(r["passage_tokens"]), tuple(r["question_tokens"]), span
                )
            record = AlignedRecord(
                id=raw["id"], source_language=raw["source_language"], renderings=renderings
            )
            record.validate()
            records.append(record)
    return records


def write_samples(samples, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(_dump_line({
                "id": s.id,
                "question_tokens": list(s.question_tokens),
                "passage_tokens": list(s.passage_tokens),
                "gold_start": s.gold_start,
                "gold_end": s.gold_end,
                "passage_lang": s.passage_lang,
                "question_lang": s.question_lang,
            }) + "\n")


def read_samples(path) -> list[Sample]:
    path = Path(path)
    samples = []
    with malformed_as_invalid(path, "dataset"), path.open("r", encoding="utf-8") as fh:
        for line in fh:
            raw = json.loads(line)
            sample = Sample(
                id=raw["id"],
                question_tokens=tuple(raw["question_tokens"]),
                passage_tokens=tuple(raw["passage_tokens"]),
                gold_start=int(raw["gold_start"]),
                gold_end=int(raw["gold_end"]),
                passage_lang=raw["passage_lang"],
                question_lang=raw["question_lang"],
            )
            sample.validate()
            samples.append(sample)
    return samples


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_digest(path) -> Path:
    digest_path = Path(str(path) + ".sha256")
    digest_path.write_text(sha256_file(path) + "\n", encoding="utf-8")
    return digest_path
