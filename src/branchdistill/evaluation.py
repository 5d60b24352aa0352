"""Span decoding, exact-match / F1 scoring, and evaluation reports.

``predict`` runs the model once over a dataset's ``Encoded`` rows, takes
the (N, 2, L) logit block, and decodes every row inside its passage with
one ``decode_span`` call over the whole block: one decode per report.
Predictions are decoded by maximizing ``z_s[s] + z_e[e]`` over pairs with
``s <= e < s + max_answer_length`` and both positions inside the passage;
ties break toward the smaller start, then the smaller end. Metrics follow
the usual span-extraction conventions on token sequences: exact match is
sequence identity, F1 is multiset token overlap. ``score`` aggregates
(sample, answer) pairs per (passage language, question language) cell, so a
single report covers both same-language and cross-language evaluation, and
predictions of several models make one report the same way as one model's;
zero-shot evaluation is the same operation run on a language absent from
training.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import read_json, setting, typed
from .errors import InvalidConfig
from .model import SpanModel, encode_dataset, forward_logits


@dataclass(frozen=True)
class EvalConfig:
    max_answer_length: int = setting(30, "eval.max_answer_length", "decoding length constraint")

    def __post_init__(self):
        if self.max_answer_length < 1:
            raise InvalidConfig(f"max_answer_length must be >= 1, got {self.max_answer_length}")


def decode_span(z_s, z_e, valid_mask, max_answer_length: int) -> np.ndarray:
    """Best-scoring valid (start, end) pair of every row, under the length
    constraint, as a (..., 2) int array for (..., L) float arrays and an
    (..., L) bool ``valid_mask``.

    The best end of each start is the first maximum of its window of the
    passage-masked ``z_e``; the best start is the first maximum of
    ``z_s + that maximum`` over the valid starts, whose scores are finite
    since each window holds its own start's end logit. Every row needs a
    valid position, as each row of ``predict`` has.
    """
    *rows, length = z_s.shape
    # the window of start s is z_e[s : s + width]; padding with -inf lets
    # every start have a full window without changing its first maximum
    width = min(max_answer_length, length)
    padded = np.full((*rows, length + width - 1), -np.inf)
    np.copyto(padded[..., :length], z_e, where=valid_mask)
    windows = sliding_window_view(padded, width, axis=-1)
    offsets = windows.argmax(axis=-1)
    scores = z_s + np.take_along_axis(windows, offsets[..., None], axis=-1)[..., 0]
    scores[~valid_mask] = -np.inf
    starts = scores.argmax(axis=-1)
    ends = starts + np.take_along_axis(offsets, starts[..., None], axis=-1)[..., 0]
    return np.stack([starts, ends], axis=-1)


def exact_match(prediction_tokens, gold_tokens) -> int:
    """1 iff the token sequences are identical (two empties match)."""
    return int(tuple(prediction_tokens) == tuple(gold_tokens))


def f1_score(prediction_tokens, gold_tokens) -> float:
    """Multiset token-overlap F1; 1.0 when both sequences are empty."""
    prediction_tokens = list(prediction_tokens)
    gold_tokens = list(gold_tokens)
    if not prediction_tokens and not gold_tokens:
        return 1.0
    if not prediction_tokens or not gold_tokens:
        return 0.0
    overlap = sum((Counter(prediction_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(prediction_tokens)
    recall = overlap / len(gold_tokens)
    return (2 * precision * recall) / (precision + recall)


@dataclass
class CellMetrics:
    passage_lang: str
    question_lang: str
    em: float
    f1: float
    n: int


@dataclass
class EvalReport:
    cells: list[CellMetrics] = field(default_factory=list)
    overall_em: float = 0.0
    overall_f1: float = 0.0
    n: int = 0
    skips: int = 0

    def cell(self, passage_lang: str, question_lang: str) -> CellMetrics:
        for c in self.cells:
            if c.passage_lang == passage_lang and c.question_lang == question_lang:
                return c
        raise KeyError(f"no cell ({passage_lang}, {question_lang}) in report")

    def macro_em(self) -> float:
        if not self.cells:
            return 0.0
        return math.fsum(c.em for c in self.cells) / len(self.cells)

    def grid_keys(self) -> list[tuple[str, str]]:
        return [(c.passage_lang, c.question_lang) for c in self.cells]

    def to_dict(self) -> dict:
        return {
            "grid": [
                {"passage_lang": c.passage_lang, "question_lang": c.question_lang,
                 "em": c.em, "f1": c.f1, "n": c.n}
                for c in self.cells
            ],
            "overall": {"em": self.overall_em, "f1": self.overall_f1, "n": self.n},
            "skips": self.skips,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "EvalReport":
        """The report ``to_dict`` wrote; an ``em`` or ``f1`` that is not a
        finite number, or an ``n`` or ``skips`` that is not an integer,
        raises ``TypeError``."""
        def em_f1_n(d) -> tuple[float, float, int]:
            return typed(d, "em", float), typed(d, "f1", float), typed(d, "n", int)

        return cls(
            [CellMetrics(c["passage_lang"], c["question_lang"], *em_f1_n(c)) for c in raw["grid"]],
            *em_f1_n(raw["overall"]),
            skips=typed(raw, "skips", int),
        )

    @classmethod
    def load(cls, path) -> "EvalReport":
        return read_json(path, "report", cls.from_dict)


def predict(model: SpanModel, samples, config: EvalConfig):
    """Decode an answer for every sample the model's window holds, encoded
    with the model's vocabulary, from the model's logit block.

    Returns (list of (sample, answer tokens) pairs, skipped count).
    """
    encoded, kept, skipped = encode_dataset(samples, model.vocab, model.config.max_len)
    logits = forward_logits(model, encoded)
    spans = decode_span(logits[:, 0], logits[:, 1], encoded.passage_mask(),
                        config.max_answer_length)
    spans -= encoded.offset[:, None]
    pairs = [(sample, tuple(sample.passage_tokens[start : end + 1]))
             for sample, (start, end) in zip(kept, spans.tolist())]
    return pairs, skipped


def _means(scores) -> tuple[float, float]:
    """Mean EM and mean F1 of (EM, F1) ``scores``."""
    ems, f1s = zip(*scores)
    return sum(ems) / len(scores), math.fsum(f1s) / len(scores)


def score(pairs, skipped: int) -> EvalReport:
    """Aggregate EM/F1 of (sample, answer tokens) pairs into the language
    grid, with ``skipped`` samples counted as skips.

    Deterministic and invariant to the order of ``pairs``: EM is a sum of
    integers and F1 a ``math.fsum``, which is correctly rounded, so neither
    depends on the order of the scores it adds.
    """
    by_cell: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for sample, answer in pairs:
        gold = tuple(sample.passage_tokens[sample.gold_start : sample.gold_end + 1])
        by_cell.setdefault((sample.passage_lang, sample.question_lang), []).append(
            (exact_match(answer, gold), f1_score(answer, gold))
        )

    report = EvalReport(skips=skipped)
    for (passage_lang, question_lang), scores in sorted(by_cell.items()):
        report.cells.append(CellMetrics(passage_lang, question_lang, *_means(scores), len(scores)))
    all_scores = [s for scores in by_cell.values() for s in scores]
    if all_scores:
        report.n = len(all_scores)
        report.overall_em, report.overall_f1 = _means(all_scores)
    return report


def evaluate(model: SpanModel, samples, config: EvalConfig = EvalConfig()) -> EvalReport:
    """The ``score`` of the model's predictions on a dataset."""
    return score(*predict(model, samples, config))


# ---------------------------------------------------------------------------
# Comparison tables
# ---------------------------------------------------------------------------


def compare_runs(reports: list[EvalReport], names: list[str], baseline: int = 0) -> dict:
    """Align reports over one grid and compute per-cell deltas to a baseline row."""
    if not reports:
        raise InvalidConfig("need at least one report to compare")
    if len(reports) != len(names):
        raise InvalidConfig(f"{len(reports)} reports but {len(names)} names")
    if not (0 <= baseline < len(reports)):
        raise InvalidConfig(f"baseline index {baseline} out of range")
    grid = reports[0].grid_keys()
    for name, report in zip(names, reports):
        if report.grid_keys() != grid:
            raise InvalidConfig(f"report {name!r} does not share the language grid")

    base = reports[baseline]
    rows = []
    for name, report in zip(names, reports):
        cells = {}
        for key in grid:
            cell = report.cell(*key)
            ref = base.cell(*key)
            cells["/".join(key)] = {
                "em": cell.em, "f1": cell.f1, "n": cell.n,
                "em_delta": cell.em - ref.em, "f1_delta": cell.f1 - ref.f1,
            }
        rows.append({
            "name": name,
            "cells": cells,
            "overall": {
                "em": report.overall_em, "f1": report.overall_f1,
                "em_delta": report.overall_em - base.overall_em,
                "f1_delta": report.overall_f1 - base.overall_f1,
            },
        })
    return {"baseline": names[baseline], "grid": ["/".join(k) for k in grid], "rows": rows}


def render_comparison(comparison: dict) -> str:
    """Fixed-width text table with 'EM / F1' cells, one row per run."""
    grid = comparison["grid"]
    headers = ["method"] + grid + ["overall"]
    lines = []
    rows = []
    for row in comparison["rows"]:
        cells = [row["name"]]
        for key in grid:
            c = row["cells"][key]
            cells.append(f"{c['em']:.3f} / {c['f1']:.3f}")
        o = row["overall"]
        cells.append(f"{o['em']:.3f} / {o['f1']:.3f}")
        rows.append(cells)
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row, raw in zip(rows, comparison["rows"]):
        marker = " *" if raw["name"] == comparison["baseline"] else ""
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)) + marker)
    lines.append("(* baseline row; deltas in the JSON table are relative to it)")
    return "\n".join(lines)


def render_report(report: EvalReport, name: str = "run") -> str:
    comparison = compare_runs([report], [name], baseline=0)
    return render_comparison(comparison)
