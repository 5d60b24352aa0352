"""Corpus data model, the pairing walk, and the synthetic corpus generator.

An aligned record holds parallel renderings of one QA instance in several
languages. One pairing walk, ``pair``, turns aligned records into flat
samples over a language list: a record pairs each passage language whose
rendering has an answer span with every question language whose rendering
exists. Every dataset ``build`` writes is a selection of that walk:

* language branches: the pairings grouped by passage language, so a branch
  holds passages and answers in one language and questions in all,
* union: every pairing, in sorted passage-language order,
* mixed dataset and evaluation grid: every pairing, in one seeded order,
* translate-train: the pairings whose passage and question are both in one
  language.

The synthetic generator produces aligned records for a marker-location task
that a small encoder can learn: each passage contains one cue token followed
by a 1-3 token answer and a terminator token; cue and terminator tokens are
shared across languages (like named entities surviving translation), while
content and question words are mapped through a per-language bijection.
Non-source renderings pass through the mark -> corrupt -> recover pipeline,
so translation noise can destroy answer markers and make a rendering
unusable exactly as in the real construction process.

Renderings, records, samples and the two specs check their invariants when
they are made, so every one that exists is valid; ``read_corpus`` also
refuses a repeated record id. The walk and the generator trust their other
arguments, record counts and language lists, which ``cli.DataConfig``
checks once.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, malformed_as_invalid

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

    def __post_init__(self):
        if self.answer_span is not None:
            start, end = self.answer_span
            if not (0 <= start <= end < len(self.passage_tokens)):
                raise InvalidConfig(
                    f"answer span {self.answer_span} out of bounds for "
                    f"passage of length {len(self.passage_tokens)}"
                )


@dataclass(frozen=True)
class AlignedRecord:
    """One logical QA instance rendered in several languages."""

    id: str
    source_language: str
    renderings: dict[str, Rendering]

    def __post_init__(self):
        if self.source_language not in self.renderings:
            raise InvalidConfig(
                f"record {self.id} lacks its source language "
                f"{self.source_language!r}"
            )


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

    def __post_init__(self):
        if not (0 <= self.gold_start <= self.gold_end < len(self.passage_tokens)):
            raise InvalidConfig(
                f"sample {self.id}: gold span ({self.gold_start}, {self.gold_end}) "
                f"out of bounds for passage of length {len(self.passage_tokens)}"
            )

    def key(self) -> str:
        """Identity of a sample inside a multi-branch union."""
        return f"{self.id}|{self.passage_lang}|{self.question_lang}"


def setting(default, key: str, help: str):
    """A settings-class field exposed as the config key and flag ``key``, with
    the help ``help``; ``cli.SCHEMA`` is built from the fields made by this."""
    return field(default=default, metadata={"key": key, "help": help})


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption applied to non-source renderings.

    Drops and swaps act on ordinary tokens only; answer markers are touched
    solely through ``marker_destroy_prob``, so the number of unrecoverable
    renderings is exactly binomial in that probability when the token noise
    is zero.
    """

    token_drop_prob: float = setting(
        0.0, "noise.token_drop_prob", "per-token drop probability in non-source renderings")
    token_swap_prob: float = setting(
        0.0, "noise.token_swap_prob", "adjacent-token swap probability in non-source renderings")
    marker_destroy_prob: float = setting(
        0.0, "noise.marker_destroy_prob", "probability a rendering loses an answer marker")
    seed: int = 0

    def __post_init__(self):
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

    content_vocab: int = setting(50, "corpus.content_vocab", "content token types per language")
    rare_vocab_size: int = 2000
    rare_prob: float = 0.5
    answer_vocab_size: int = 20
    cue_count: int = setting(8, "corpus.cue_count", "cue token types (shared across languages)")
    question_words: int = setting(5, "corpus.question_words", "question word types per language")
    passage_min: int = setting(10, "corpus.passage_min", "minimum body tokens per passage")
    passage_max: int = setting(20, "corpus.passage_max", "maximum body tokens per passage")
    answer_max_len: int = setting(3, "corpus.answer_max_len", "maximum answer span length")
    seed: int = 0

    def __post_init__(self):
        if self.content_vocab < 1 or self.cue_count < 1 or self.answer_vocab_size < 1:
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
    """Insert the reserved marker pair around the rendering's answer span,
    which must be set."""
    start, end = rendering.answer_span
    tokens = list(rendering.passage_tokens)
    return tokens[:start] + [ANSWER_OPEN] + tokens[start : end + 1] + [ANSWER_CLOSE] + tokens[end + 1 :]


def recover_answer(marked_tokens) -> tuple[list[str], tuple[int, int] | None]:
    """The tokens without the answer markers, and the inclusive span the
    marker pair enclosed: None when the markers are absent, duplicated,
    crossed, or enclose no tokens, and callers keep the rendering without
    an answer."""
    marked = list(marked_tokens)
    tokens = [t for t in marked if t not in RESERVED_TOKENS]
    opens = [i for i, t in enumerate(marked) if t == ANSWER_OPEN]
    closes = [i for i, t in enumerate(marked) if t == ANSWER_CLOSE]
    if len(opens) != 1 or len(closes) != 1 or closes[0] <= opens[0] + 1:
        return tokens, None
    return tokens, (opens[0], closes[0] - 2)


# ---------------------------------------------------------------------------
# Pairing walk
# ---------------------------------------------------------------------------


def pair(records, languages) -> tuple[list[Sample], Counter, Counter]:
    """The pairing walk: every sample of ``records`` over ``languages``, in
    record, passage-language, question-language order, and the renderings
    it skips, counted per language, as missing and as unrecoverable.

    A record pairs each passage language whose rendering has an answer span
    with every question language whose rendering exists, so a rendering
    unusable as a passage still gives its question to the other languages.
    """
    samples: list[Sample] = []
    missing: Counter = Counter()
    unrecoverable: Counter = Counter()
    for record in records:
        renderings = [(lang, record.renderings.get(lang)) for lang in languages]
        questions = [(lang, tuple(r.question_tokens)) for lang, r in renderings if r is not None]
        for passage_lang, passage in renderings:
            if passage is None:
                missing[passage_lang] += 1
            elif passage.answer_span is None:
                unrecoverable[passage_lang] += 1
            else:
                start, end = passage.answer_span
                passage_tokens = tuple(passage.passage_tokens)
                samples.extend(
                    Sample(record.id, question_tokens, passage_tokens, start, end,
                           passage_lang, question_lang)
                    for question_lang, question_tokens in questions
                )
    return samples, missing, unrecoverable


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------


def _content_vocab(task: TaskSpec) -> list[str]:
    return [f"w{i:03d}" for i in range(task.content_vocab)]


def _rare_vocab(task: TaskSpec) -> list[str]:
    return [f"r{i:04d}" for i in range(task.rare_vocab_size)]


def _cue_vocab(task: TaskSpec) -> list[str]:
    return [f"cue{i}" for i in range(task.cue_count)]


def _answer_vocab(task: TaskSpec) -> list[str]:
    return [f"ans{i:02d}" for i in range(task.answer_vocab_size)]


def _question_words(task: TaskSpec) -> list[str]:
    base = ["what", "which", "where", "find", "locate", "name", "give", "show"]
    if task.question_words > len(base):
        base = base + [f"qw{i}" for i in range(task.question_words - len(base))]
    return base[: task.question_words]


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
            clean, recovered_span = recover_answer(corrupted)
            renderings[lang] = Rendering(tuple(clean), translated_question, recovered_span)

        records.append(AlignedRecord(id=f"r{index:06d}", source_language=source,
                                     renderings=renderings))
    return records


def eval_count(records: int, eval_fraction: float) -> int:
    """How many of ``records`` records the split holds out for evaluation."""
    return round(records * eval_fraction)


def split_records(records, eval_fraction: float) -> tuple[list[AlignedRecord], list[AlignedRecord]]:
    """Deterministic train/eval split by record position, the last
    ``eval_count`` records held out; ``cli.DataConfig`` checks that each
    side gets at least one record."""
    records = list(records)
    n_train = len(records) - eval_count(len(records), eval_fraction)
    return records[:n_train], records[n_train:]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def dumps(obj) -> str:
    """The one JSON encoding of every artifact: sorted keys, no spaces, and
    no ``NaN`` or ``Infinity``, which raise ``ValueError`` instead."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_file(path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text as UTF-8) in one step, unless it
    already holds exactly these bytes, in which case it is left alone.

    The bytes go to a uniquely named temporary file in the same directory,
    which ``os.replace`` then moves over ``path``, so a reader, or another
    writer running beside this one, sees the old file or the new one, never
    a part of either. On any failure the temporary file is removed and
    ``path`` keeps its old bytes. Nothing is fsynced: the failure guarded
    against is an interrupted process, not a power loss, and a disk flush
    per artifact would cost more than the write.
    """
    path = Path(path)
    data = data.encode("utf-8") if isinstance(data, str) else data
    with contextlib.suppress(FileNotFoundError):
        if path.stat().st_size == len(data) and path.read_bytes() == data:
            return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(path, obj) -> None:
    write_file(path, dumps(obj) + "\n")


_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number"}


def typed(raw: dict, key: str, kind: type):
    """``raw[key]`` if it is a ``kind``: a ``str``, an ``int``, or with
    ``float`` any finite number (``json`` reads ``NaN``, which no artifact
    holds). A JSON boolean, which Python counts as an integer, is no number.
    Anything else raises ``TypeError``; nothing is converted."""
    value = raw[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind)
            or kind is float and not math.isfinite(value)):
        raise TypeError(f"{key} is {value!r}, not {_KIND_NAMES[kind]}")
    return value


def read_json(path, what: str, parse):
    """``parse`` of the JSON value in ``path``. A file that does not decode,
    or in which ``parse`` finds a field missing or of the wrong type, raises
    ``InvalidConfig`` naming ``what``."""
    with malformed_as_invalid(path, what):
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))


def write_corpus(records, path) -> None:
    lines = []
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
        lines.append(dumps({
            "id": record.id,
            "source_language": record.source_language,
            "renderings": renderings,
        }) + "\n")
    write_file(path, "".join(lines))


def read_corpus(path) -> list[AlignedRecord]:
    """The records of the corpus file ``path``. A repeated record id is
    refused: the samples of two records under one id would share their keys."""
    path = Path(path)
    records = []
    ids: set[str] = set()
    with malformed_as_invalid(path, "corpus"), path.open("r", encoding="utf-8") as fh:
        for line in fh:
            raw = json.loads(line)
            if raw["id"] in ids:
                raise InvalidConfig(f"corpus {path} repeats the record id {raw['id']!r}")
            ids.add(raw["id"])
            renderings = {}
            for lang, r in raw["renderings"].items():
                start, end = r["answer_start"], r["answer_end"]
                if (start is None) != (end is None):
                    raise InvalidConfig(f"record {raw['id']}: half-open answer span")
                span = None if start is None else (typed(r, "answer_start", int),
                                                   typed(r, "answer_end", int))
                renderings[lang] = Rendering(
                    tuple(r["passage_tokens"]), tuple(r["question_tokens"]), span
                )
            records.append(AlignedRecord(
                id=raw["id"], source_language=raw["source_language"], renderings=renderings
            ))
    return records


def write_samples(samples, path) -> None:
    write_file(path, "".join(dumps({
        "id": s.id,
        "question_tokens": list(s.question_tokens),
        "passage_tokens": list(s.passage_tokens),
        "gold_start": s.gold_start,
        "gold_end": s.gold_end,
        "passage_lang": s.passage_lang,
        "question_lang": s.question_lang,
    }) + "\n" for s in samples))


def read_samples(path) -> list[Sample]:
    path = Path(path)
    samples = []
    with malformed_as_invalid(path, "dataset"), path.open("r", encoding="utf-8") as fh:
        for line in fh:
            raw = json.loads(line)
            samples.append(Sample(
                id=raw["id"],
                question_tokens=tuple(raw["question_tokens"]),
                passage_tokens=tuple(raw["passage_tokens"]),
                gold_start=typed(raw, "gold_start", int),
                gold_end=typed(raw, "gold_end", int),
                passage_lang=raw["passage_lang"],
                question_lang=raw["question_lang"],
            ))
    return samples


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
