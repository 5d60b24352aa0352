import ast
import os
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchdistill import cli
from branchdistill import corpus as cp
from branchdistill.errors import InvalidConfig

LANGS = ["en", "es", "de"]

plain_tokens = st.lists(
    st.sampled_from([f"t{i}" for i in range(12)]), min_size=1, max_size=15
)


def make_rendering(tokens, span):
    return cp.Rendering(tuple(tokens), ("q",), span)


def noiseless_records(n, langs=LANGS, seed=0, **task_kwargs):
    task = cp.TaskSpec(seed=seed, **task_kwargs)
    return cp.generate_synthetic_corpus(n, langs, cp.NoiseSpec(seed=seed), task)


class TestMarkAnswer:
    def test_interior_span(self):
        marked = cp.mark_answer(make_rendering(["a", "b", "c", "d"], (1, 2)))
        assert marked == ["a", cp.ANSWER_OPEN, "b", "c", cp.ANSWER_CLOSE, "d"]

    def test_single_token_passage(self):
        assert cp.mark_answer(make_rendering(["a"], (0, 0))) == [
            cp.ANSWER_OPEN, "a", cp.ANSWER_CLOSE,
        ]

    def test_full_passage_span(self):
        assert cp.mark_answer(make_rendering(["a", "b"], (0, 1))) == [
            cp.ANSWER_OPEN, "a", "b", cp.ANSWER_CLOSE,
        ]

    def test_out_of_bounds_span_rejected(self):
        with pytest.raises(InvalidConfig, match=r"answer span \(1, 2\) out of bounds"):
            cp.mark_answer(make_rendering(["a", "b"], (1, 2)))


class TestRecoverAnswer:
    def test_inverse_of_marking(self):
        tokens, span = cp.recover_answer(["a", cp.ANSWER_OPEN, "b", "c", cp.ANSWER_CLOSE, "d"])
        assert tokens == ["a", "b", "c", "d"]
        assert span == (1, 2)

    def test_no_markers(self):
        assert cp.recover_answer(["a", "b", "c"]) == (["a", "b", "c"], None)

    def test_duplicated_open_marker(self):
        assert cp.recover_answer(
            [cp.ANSWER_OPEN, "a", cp.ANSWER_OPEN, "b", cp.ANSWER_CLOSE]) == (["a", "b"], None)

    def test_crossed_markers(self):
        assert cp.recover_answer([cp.ANSWER_CLOSE, "a", cp.ANSWER_OPEN]) == (["a"], None)

    def test_empty_interior(self):
        assert cp.recover_answer(["a", cp.ANSWER_OPEN, cp.ANSWER_CLOSE, "b"]) == (["a", "b"], None)

    @given(plain_tokens, st.data())
    @settings(deadline=None)
    def test_round_trip_identity(self, tokens, data):
        start = data.draw(st.integers(0, len(tokens) - 1))
        end = data.draw(st.integers(start, len(tokens) - 1))
        rendering = make_rendering(tokens, (start, end))
        recovered, span = cp.recover_answer(cp.mark_answer(rendering))
        assert recovered == tokens
        assert span == (start, end)


def select(mode, records, languages=LANGS, seed=0, augment=False):
    """The datasets ``build`` selects in ``mode`` from one walk over ``records``."""
    source = cli.augmentation_source(records, languages) if augment else None
    samples, _, _ = cp.pair(records, languages)
    return cli.select_datasets(mode, samples, list(languages), seed, source)


class TestBranchBuilder:
    def test_counts_without_augmentation(self):
        samples, missing, unrecoverable = cp.pair(noiseless_records(10), LANGS)
        branches = cli.select_datasets("lbmrc", samples, LANGS, 0)
        assert {k: len(b) for k, b in branches.items()} == {
            "branch_en": 30, "branch_es": 30, "branch_de": 30, "union": 90,
        }
        assert missing.total() + unrecoverable.total() == 0

    def test_counts_with_source_augmentation(self):
        branches = select("lbmrc", noiseless_records(10), augment=True)
        sizes = {k: len(b) for k, b in branches.items()}
        assert sizes == {"branch_en": 30, "branch_es": 60, "branch_de": 60, "union": 90}

    def test_unrecoverable_rendering_discarded_per_language(self):
        records = noiseless_records(10)
        broken = records[4]
        es = broken.renderings["es"]
        records[4] = cp.AlignedRecord(
            id=broken.id,
            source_language=broken.source_language,
            renderings={
                **broken.renderings,
                "es": cp.Rendering(es.passage_tokens, es.question_tokens, None),
            },
        )
        samples, _, unrecoverable = cp.pair(records, LANGS)
        branches = cli.select_datasets("lbmrc", samples, LANGS, 0)
        sizes = {k: len(b) for k, b in branches.items()}
        # es loses its 3 samples; other branches keep es questions
        assert sizes == {"branch_en": 30, "branch_es": 27, "branch_de": 30, "union": 87}
        assert unrecoverable == {"es": 1}

    def test_every_sample_satisfies_invariants(self):
        branches = select("lbmrc", noiseless_records(6), augment=True)
        for lang in LANGS:
            for sample in branches[f"branch_{lang}"]:
                assert sample.passage_lang == lang or sample.passage_lang == "en"
                assert 0 <= sample.gold_start <= sample.gold_end < len(sample.passage_tokens)

    def test_question_languages_cover_all(self):
        qlangs = {s.question_lang for s in select("lbmrc", noiseless_records(4))["branch_de"]}
        assert qlangs == set(LANGS)


class TestMixBuilder:
    def test_cross_product_count(self):
        assert len(select("mixmrc", noiseless_records(10), seed=5)["mix"]) == 90

    def test_single_language_equals_branch(self):
        records = noiseless_records(8)
        mix = select("mixmrc", records, ["en"], seed=1)["mix"]
        branch = select("lbmrc", records, ["en"])["branch_en"]
        assert sorted(s.key() for s in mix) == sorted(s.key() for s in branch)

    def test_seed_reproducibility(self):
        records = noiseless_records(10)
        a = select("mixmrc", records, seed=3)["mix"]
        b = select("mixmrc", records, seed=3)["mix"]
        assert [s.key() for s in a] == [s.key() for s in b]


class TestTranslateTrainBuilder:
    def test_single_language_pairs(self):
        samples = select("translate-train", noiseless_records(10))["tt_de"]
        assert len(samples) == 10
        assert all(s.passage_lang == s.question_lang == "de" for s in samples)

    def test_missing_language_counts_skips(self):
        samples, missing, _ = cp.pair(noiseless_records(7), ["fr"])
        assert samples == []
        assert missing == {"fr": 7}

    def test_source_language_equals_original_dataset(self):
        records = noiseless_records(5)
        samples = select("translate-train", records)["tt_en"]
        for record, sample in zip(records, samples):
            rendering = record.renderings["en"]
            assert sample.passage_tokens == rendering.passage_tokens
            assert sample.question_tokens == rendering.question_tokens
            assert (sample.gold_start, sample.gold_end) == rendering.answer_span


# The three builder loops as they stood before one pairing walk replaced
# them, kept as the oracle the walk's selections must match sample for sample.


def _oracle_status(records, languages):
    status = []
    for record in records:
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


def _oracle_result(status, languages):
    result = SimpleNamespace(branches={}, samples=[], missing=Counter(), unrecoverable=Counter())
    for row in status:
        for lang in languages:
            if row[lang] == "missing":
                result.missing[lang] += 1
            elif row[lang] == "unrecoverable":
                result.unrecoverable[lang] += 1
    return result


def _oracle_sample(record, passage_lang, question_lang):
    passage = record.renderings[passage_lang]
    start, end = passage.answer_span
    return cp.Sample(record.id, tuple(record.renderings[question_lang].question_tokens),
                     tuple(passage.passage_tokens), start, end, passage_lang, question_lang)


def oracle_branches(records, languages, augment_with_source=False):
    languages, records = list(languages), list(records)
    status = _oracle_status(records, languages)
    result = _oracle_result(status, languages)
    for lang in languages:
        branch = []
        for record, row in zip(records, status):
            if row[lang] != "ok":
                continue
            for question_lang in languages:
                if row[question_lang] != "missing":
                    branch.append(_oracle_sample(record, lang, question_lang))
        result.branches[lang] = branch
    if augment_with_source:
        sources = {r.source_language for r in records}
        if len(sources) > 1:
            raise InvalidConfig(f"augmentation needs a single source language, got {sorted(sources)}")
        source = sources.pop() if sources else None
        if source not in result.branches:
            raise InvalidConfig(f"source language {source!r} is not among the built branches")
        source_samples = list(result.branches[source])
        for lang, branch in result.branches.items():
            if lang != source:
                branch.extend(source_samples)
    return result


def oracle_mix(records, languages, seed):
    languages, records = list(languages), list(records)
    status = _oracle_status(records, languages)
    result = _oracle_result(status, languages)
    samples = []
    for record, row in zip(records, status):
        for passage_lang in languages:
            if row[passage_lang] != "ok":
                continue
            for question_lang in languages:
                if row[question_lang] != "missing":
                    samples.append(_oracle_sample(record, passage_lang, question_lang))
    order = np.random.default_rng(np.random.SeedSequence([seed, 0x6D69])).permutation(len(samples))
    result.samples = [samples[i] for i in order]
    return result


def oracle_translate_train(records, language):
    records = list(records)
    status = _oracle_status(records, [language])
    result = _oracle_result(status, [language])
    for record, row in zip(records, status):
        if row[language] == "ok":
            result.samples.append(_oracle_sample(record, language, language))
    return result


POOL = ["en", "es", "de", "fr"]


@st.composite
def pairing_cases(draw):
    """Records whose rendering in each pool language is present, has no span
    or is missing (the source's is never missing), and 1-4 languages."""
    sources = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=2, unique=True))
    records = []
    for i in range(draw(st.integers(0, 6))):
        source = draw(st.sampled_from(sources))
        renderings = {}
        for lang in POOL:
            state = draw(st.sampled_from(["present", "unrecoverable", "missing"]))
            if state == "missing" and lang != source:
                continue
            passage = tuple(f"{lang}{i}.{k}" for k in range(draw(st.integers(1, 4))))
            start = draw(st.integers(0, len(passage) - 1))
            span = (start, draw(st.integers(start, len(passage) - 1)))
            renderings[lang] = cp.Rendering(passage, (f"q{lang}{i}",),
                                            None if state == "unrecoverable" else span)
        records.append(cp.AlignedRecord(f"r{i}", source, renderings))
    languages = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True))
    return records, languages


def oracle_union(branches):
    """The union as it stood before it was a selection of the walk: the
    branches in sorted language order, each key's first occurrence kept."""
    seen, union = set(), []
    for lang in sorted(branches):
        for sample in branches[lang]:
            if sample.key() not in seen:
                seen.add(sample.key())
                union.append(sample)
    return union


def outcome(build, *args):
    """A builder's branches, or its error."""
    try:
        return build(*args)
    except InvalidConfig as exc:
        return "error", str(exc)


def lbmrc_branches(records, languages, augment):
    branches = select("lbmrc", records, languages, augment=augment)
    return {lang: branches[f"branch_{lang}"] for lang in languages}


class TestPairingWalk:
    @given(pairing_cases(), st.booleans(), st.sampled_from([0, 1, 7, 2**31 + 5]))
    @settings(deadline=None, max_examples=300)
    def test_selections_match_the_three_loops(self, case, augment, seed):
        records, languages = case
        expected = oracle_branches(records, languages)
        _, missing, unrecoverable = cp.pair(records, languages)
        assert (missing, unrecoverable) == (expected.missing, expected.unrecoverable)
        assert (outcome(lbmrc_branches, records, languages, augment)
                == outcome(lambda *a: oracle_branches(*a).branches, records, languages, augment))
        assert select("mixmrc", records, languages, seed)["mix"] == oracle_mix(
            records, languages, seed).samples
        tt = select("translate-train", records, languages)
        for lang in languages:
            assert tt[f"tt_{lang}"] == oracle_translate_train(records, lang).samples

    @given(pairing_cases(), st.booleans())
    @settings(deadline=None, max_examples=300)
    def test_union_matches_the_first_occurrence_rule(self, case, augment):
        records, languages = case
        try:
            union = select("lbmrc", records, languages, augment=augment)["union"]
        except InvalidConfig:
            return   # the source check, which test_selections_match_the_three_loops covers
        # the union is the same with augmentation on or off ...
        assert union == oracle_union(oracle_branches(records, languages).branches)
        # ... and with it on, it is the old rule's union while the source
        # language is first or second in sorted order
        source = records[0].source_language if records else None
        if augment and source in sorted(languages)[:2]:
            assert union == oracle_union(oracle_branches(records, languages, True).branches)

    def test_union_ignores_where_the_source_sorts(self):
        # the old rule's union put the source's samples behind the first
        # sorted branch, which they augmented: fr before en here
        records = noiseless_records(3, ["fr", "de", "en"])
        union = select("lbmrc", records, ["fr", "de", "en"], augment=True)["union"]
        old = oracle_union(oracle_branches(records, ["fr", "de", "en"], True).branches)
        assert [s.passage_lang for s in union] == ["de"] * 9 + ["en"] * 9 + ["fr"] * 9
        assert [s.passage_lang for s in old] == ["de"] * 9 + ["fr"] * 9 + ["en"] * 9


class TestSyntheticGenerator:
    def test_zero_noise_everything_recoverable(self):
        records = noiseless_records(25)
        for record in records:
            for rendering in record.renderings.values():
                assert rendering.answer_span is not None

    def test_answer_follows_cue(self):
        for record in noiseless_records(10):
            rendering = record.renderings["en"]
            start, end = rendering.answer_span
            assert 1 <= end - start + 1 <= 3
            assert rendering.passage_tokens[start - 1].startswith("cue")
            assert rendering.passage_tokens[end + 1] == cp.ANSWER_TERMINATOR
            cue = rendering.passage_tokens[start - 1]
            assert cue in rendering.question_tokens
            assert sum(1 for t in rendering.passage_tokens if t.startswith("cue")) == 1

    def test_marker_destruction_is_binomial(self):
        noise = cp.NoiseSpec(marker_destroy_prob=0.2, seed=13)
        records = cp.generate_synthetic_corpus(1000, ["en", "xx"], noise, cp.TaskSpec(seed=13))
        discarded = sum(1 for r in records if r.renderings["xx"].answer_span is None)
        # Binomial(1000, 0.2): mean 200, 3 sigma ~ 38
        assert 160 <= discarded <= 240

    def test_determinism_byte_identical_files(self, tmp_path):
        for name in ("a", "b"):
            records = cp.generate_synthetic_corpus(
                30, LANGS, cp.NoiseSpec(token_drop_prob=0.1, seed=9), cp.TaskSpec(seed=9)
            )
            cp.write_corpus(records, tmp_path / f"{name}.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_bad_noise_probability_rejected(self):
        with pytest.raises(InvalidConfig):
            cp.generate_synthetic_corpus(3, LANGS, cp.NoiseSpec(token_drop_prob=1.5), cp.TaskSpec())

    def test_non_source_languages_are_transformed(self):
        records = noiseless_records(5)
        for record in records:
            en = record.renderings["en"]
            es = record.renderings["es"]
            assert len(en.passage_tokens) == len(es.passage_tokens)
            for a, b in zip(en.passage_tokens, es.passage_tokens):
                if a.startswith(("cue", "ans")) or a == cp.ANSWER_TERMINATOR:
                    assert b == a
                else:
                    assert b == f"es:{a}"

    def test_token_noise_can_shrink_spans_but_keeps_invariants(self):
        noise = cp.NoiseSpec(token_drop_prob=0.3, token_swap_prob=0.3, seed=4)
        records = cp.generate_synthetic_corpus(50, ["en", "es"], noise, cp.TaskSpec(seed=4))
        for record in records:
            # source rendering is never corrupted
            assert record.renderings["en"].answer_span is not None


class TestUnion:
    def test_union_deduplicates_augmented_branches(self):
        union = select("lbmrc", noiseless_records(10), augment=True)["union"]
        assert len(union) == 90
        assert len({s.key() for s in union}) == 90


class TestSplit:
    def test_split_sizes_and_determinism(self):
        records = noiseless_records(50)
        train_a, eval_a = cp.split_records(records, 0.2)
        train_b, eval_b = cp.split_records(records, 0.2)
        assert len(train_a) == 40 and len(eval_a) == 10
        assert [r.id for r in train_a] == [r.id for r in train_b]
        assert [r.id for r in eval_a] == [r.id for r in eval_b]


class TestRecordInvariants:
    @pytest.mark.parametrize("build, message", [
        (lambda: make_rendering(["a", "b"], (1, 2)), "answer span (1, 2) out of bounds"),
        (lambda: make_rendering(["a", "b"], (1, 0)), "answer span (1, 0) out of bounds"),
        (lambda: cp.Sample("s", ("q",), ("a", "b"), 0, 2, "en", "en"),
         "sample s: gold span (0, 2) out of bounds"),
        (lambda: cp.Sample("s", ("q",), ("a", "b"), -1, 0, "en", "en"),
         "sample s: gold span (-1, 0) out of bounds"),
        (lambda: cp.AlignedRecord("r", "en", {"es": make_rendering(["a"], (0, 0))}),
         "record r lacks its source language 'en'"),
    ], ids=["span_past_passage", "span_reversed", "gold_past_passage", "gold_negative",
            "no_source_rendering"])
    def test_construction_refuses_a_broken_record(self, build, message):
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            build()


class TestFileFormats:
    def test_corpus_round_trip(self, tmp_path):
        records = cp.generate_synthetic_corpus(
            12, LANGS, cp.NoiseSpec(marker_destroy_prob=0.4, seed=2), cp.TaskSpec(seed=2)
        )
        path = tmp_path / "corpus.jsonl"
        cp.write_corpus(records, path)
        loaded = cp.read_corpus(path)
        assert loaded == records

    def test_samples_round_trip(self, tmp_path):
        samples, _, _ = cp.pair(noiseless_records(6), LANGS)
        path = tmp_path / "samples.jsonl"
        cp.write_samples(samples, path)
        assert cp.read_samples(path) == samples

    def test_interrupted_write_keeps_previous_file(self, tmp_path):
        samples, _, _ = cp.pair(noiseless_records(6), LANGS)
        path = tmp_path / "samples.jsonl"
        cp.write_samples(samples, path)
        before = path.read_bytes()

        def interrupted():
            yield samples[0]
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            cp.write_samples(interrupted(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["samples.jsonl"]

    def test_failed_replace_removes_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "a.json"
        cp.write_json(path, {"v": 1})

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(cp.os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            cp.write_json(path, {"v": 2})
        assert path.read_text() == '{"v":1}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_unchanged_file_is_left_alone(self, tmp_path):
        path = tmp_path / "a.json"
        cp.write_json(path, {"b": [1, 2], "a": "x"})
        assert path.read_bytes() == b'{"a":"x","b":[1,2]}\n'
        os.utime(path, ns=(0, 0))
        cp.write_json(path, {"a": "x", "b": [1, 2]})
        assert path.stat().st_mtime_ns == 0
        cp.write_json(path, {"a": "y", "b": [1, 2]})
        assert path.stat().st_mtime_ns != 0
        assert path.read_bytes() == b'{"a":"y","b":[1,2]}\n'

    def test_written_file_has_the_mode_open_gives(self, tmp_path):
        cp.write_file(tmp_path / "new.txt", "x")
        with open(tmp_path / "old.txt", "w"):
            pass
        assert (tmp_path / "new.txt").stat().st_mode == (tmp_path / "old.txt").stat().st_mode

    def test_invalid_span_rejected_on_read(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id":"x","source_language":"en","renderings":{"en":'
            '{"passage_tokens":["a"],"question_tokens":["q"],"answer_start":0,"answer_end":5}}}\n'
        )
        with pytest.raises(InvalidConfig, match=r"answer span \(0, 5\) out of bounds"):
            cp.read_corpus(path)


# a write-mode open: a mode literal holding w, a, x or +, or a writing flag
WRITES = re.compile(
    r"\.write_text\(|\.write_bytes\(|open\(.*[\"'][rbt]*[wax+][rwxabt+]*[\"']|O_WRONLY|O_RDWR")
ENCODING = re.compile(r"sort_keys=True")


def test_one_write_path_and_one_encoding_in_source():
    """Only ``corpus.write_file`` opens a file for writing, and only
    ``corpus.dumps`` spells the artifact encoding."""
    offences = []
    for path in sorted(Path(cp.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        spans = {node.name: range(node.lineno, node.end_lineno + 1)
                 for node in ast.parse(text).body if isinstance(node, ast.FunctionDef)}
        for number, line in enumerate(text.splitlines(), 1):
            for pattern, home in ((WRITES, "write_file"), (ENCODING, "dumps")):
                if pattern.search(line) and not (
                        path.name == "corpus.py" and number in spans.get(home, ())):
                    offences.append(f"{path.name}:{number}: {line.strip()}")
    assert offences == []
