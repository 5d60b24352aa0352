"""Span decoding, exact-match / F1 scoring, and evaluation reports.

Predictions are decoded by maximizing ``z_s[s] + z_e[e]`` over pairs with
``s <= e < s + max_answer_length`` and both positions inside the passage;
ties break toward the smaller start, then the smaller end. Metrics follow
the usual span-extraction conventions on token sequences: exact match is
sequence identity, F1 is multiset token overlap. Reports aggregate per
(passage language, question language) cell, so a single report covers both
same-language and cross-language evaluation; zero-shot evaluation is the
same operation run on a language absent from training.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, InvalidParameter, NoValidSpan, malformed_as_invalid
from .model import FORWARD_BATCH_SIZE, SpanModel, Vocabulary, encode_dataset, forward_batch


@dataclass(frozen=True)
class EvalConfig:
    max_answer_length: int = 30


@dataclass(frozen=True)
class Prediction:
    sample_id: str
    start: int                      # passage coordinates, inclusive
    end: int
    answer_tokens: tuple[str, ...]
    score: float


def decode_span(z_s, z_e, valid_mask, max_answer_length: int) -> tuple[int, int]:
    """Best-scoring valid (start, end) pair under the length constraint."""
    if max_answer_length < 1:
        raise InvalidParameter(f"max_answer_length must be >= 1, got {max_answer_length}")
    z_s = np.asarray(z_s, dtype=np.float64)
    z_e = np.asarray(z_e, dtype=np.float64)
    valid = np.asarray(valid_mask, dtype=bool)
    if z_s.shape != z_e.shape or z_s.shape != valid.shape:
        raise InvalidParameter("decode inputs must share one length")
    z_e_valid = np.where(valid, z_e, -np.inf)

    best: tuple[int, int] | None = None
    best_score = -np.inf
    for s in np.flatnonzero(valid):
        window = z_e_valid[s : s + max_answer_length]
        offset = int(np.argmax(window))          # first maximum -> smallest end
        score = z_s[s] + window[offset]
        if np.isfinite(score) and score > best_score:
            best = (int(s), int(s) + offset)
            best_score = score
    if best is None:
        raise NoValidSpan("no valid (start, end) pair")
    return best


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

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def from_dict(cls, raw: dict) -> "EvalReport":
        report = cls(
            cells=[CellMetrics(c["passage_lang"], c["question_lang"], c["em"], c["f1"], c["n"])
                   for c in raw["grid"]],
            overall_em=raw["overall"]["em"],
            overall_f1=raw["overall"]["f1"],
            n=raw["overall"]["n"],
            skips=raw["skips"],
        )
        return report

    @classmethod
    def load(cls, path) -> "EvalReport":
        with malformed_as_invalid(path, "report"):
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def predict(model: SpanModel, samples, vocab: Vocabulary, config: EvalConfig):
    """Decode a prediction for every encodable sample.

    Returns (list of (sample, Prediction) pairs, skipped count).
    """
    encoded, kept, skipped = encode_dataset(samples, vocab, model.config.max_len)
    pairs = []
    for lo in range(0, len(kept), FORWARD_BATCH_SIZE):
        batch = encoded[lo : lo + FORWARD_BATCH_SIZE]
        result = forward_batch(model, batch)
        for row, (sample, enc) in enumerate(zip(kept[lo : lo + FORWARD_BATCH_SIZE], batch)):
            start, end = decode_span(
                result.z_s[row], result.z_e[row], enc.passage_mask, config.max_answer_length
            )
            score = float(result.z_s[row][start] + result.z_e[row][end])
            p_start = start - enc.passage_offset
            p_end = end - enc.passage_offset
            pairs.append((sample, Prediction(
                sample_id=sample.key(),
                start=p_start,
                end=p_end,
                answer_tokens=tuple(sample.passage_tokens[p_start : p_end + 1]),
                score=score,
            )))
    return pairs, skipped


def evaluate(model: SpanModel, samples, vocab: Vocabulary,
             config: EvalConfig = EvalConfig()) -> EvalReport:
    """Score a dataset and aggregate EM/F1 into the language grid.

    Deterministic and invariant to dataset ordering: per-cell results are
    sorted by sample key before reduction.
    """
    pairs, skipped = predict(model, samples, vocab, config)
    by_cell: dict[tuple[str, str], list[tuple[str, int, float]]] = {}
    for sample, prediction in pairs:
        gold = tuple(sample.passage_tokens[sample.gold_start : sample.gold_end + 1])
        em = exact_match(prediction.answer_tokens, gold)
        f1 = f1_score(prediction.answer_tokens, gold)
        by_cell.setdefault((sample.passage_lang, sample.question_lang), []).append(
            (sample.key(), em, f1)
        )

    report = EvalReport(skips=skipped)
    all_scores: list[tuple[str, int, float]] = []
    for key in sorted(by_cell):
        scores = sorted(by_cell[key])
        all_scores.extend(scores)
        n = len(scores)
        report.cells.append(CellMetrics(
            passage_lang=key[0],
            question_lang=key[1],
            em=sum(s[1] for s in scores) / n,
            f1=math.fsum(s[2] for s in scores) / n,
            n=n,
        ))
    if all_scores:
        report.n = len(all_scores)
        report.overall_em = sum(s[1] for s in all_scores) / report.n
        report.overall_f1 = math.fsum(s[2] for s in all_scores) / report.n
    return report


def merge_reports(reports) -> EvalReport:
    """Combine reports with disjoint grids into one (e.g. per-language experts
    each scored on their own passage-language cells)."""
    merged = EvalReport()
    seen: set[tuple[str, str]] = set()
    for report in reports:
        for cell in report.cells:
            key = (cell.passage_lang, cell.question_lang)
            if key in seen:
                raise InvalidConfig(f"cell {key} appears in more than one report")
            seen.add(key)
            merged.cells.append(cell)
        merged.skips += report.skips
    merged.cells.sort(key=lambda c: (c.passage_lang, c.question_lang))
    merged.n = sum(c.n for c in merged.cells)
    if merged.n:
        merged.overall_em = math.fsum(c.em * c.n for c in merged.cells) / merged.n
        merged.overall_f1 = math.fsum(c.f1 * c.n for c in merged.cells) / merged.n
    return merged


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
