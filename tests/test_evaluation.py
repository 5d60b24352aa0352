import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchdistill import corpus as cp
from branchdistill import evaluation as ev
from branchdistill import model as md
from branchdistill.errors import InvalidConfig

from _oracles import vocabulary_from_samples


def brute_force_decode(z_s, z_e, valid, max_answer_length):
    """Independent oracle: exhaustive scan over all (s, e) pairs with
    explicit lexicographic tie-breaking."""
    best = None
    best_score = None
    for s in range(len(z_s)):
        if not valid[s]:
            continue
        for e in range(s, min(s + max_answer_length, len(z_s))):
            if not valid[e]:
                continue
            score = z_s[s] + z_e[e]
            if best_score is None or score > best_score:
                best, best_score = (s, e), score
    return best


class TestDecodeSpan:
    def test_unconstrained_argmax(self):
        z_s, z_e = np.array([5.0, 0.0, 0.0]), np.array([0.0, 0.0, 5.0])
        assert tuple(ev.decode_span(z_s, z_e, np.ones(3, bool), 3)) == (0, 2)

    def test_length_one_constraint(self):
        z_s = np.array([1.0, 4.0, 0.0])
        z_e = np.array([2.0, 1.0, 3.0])
        assert tuple(ev.decode_span(z_s, z_e, np.ones(3, bool), 1)) == (1, 1)

    def test_ties_prefer_smaller_start_then_end(self):
        zeros = np.zeros(4)
        assert tuple(ev.decode_span(zeros, zeros, np.ones(4, bool), 2)) == (0, 0)
        assert tuple(ev.decode_span(zeros, zeros, np.array([False, True, True, True]), 2)) == (1, 1)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        z_s = rng.normal(size=10)
        z_e = rng.normal(size=10)
        valid = rng.random(10) > 0.3
        valid[4] = True
        base = tuple(ev.decode_span(z_s, z_e, valid, 5))
        assert tuple(ev.decode_span(z_s + 17.5, z_e, valid, 5)) == base
        assert tuple(ev.decode_span(z_s, z_e - 3.25, valid, 5)) == base

    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_matches_brute_force_oracle(self, data):
        length = data.draw(st.integers(2, 12))
        # small integer grid forces plenty of ties
        z_s = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length)), dtype=float)
        z_e = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length)), dtype=float)
        valid = np.array(data.draw(st.lists(st.booleans(), min_size=length, max_size=length)))
        if not valid.any():
            valid[data.draw(st.integers(0, length - 1))] = True
        maxlen = data.draw(st.integers(1, length + 2))
        assert tuple(ev.decode_span(z_s, z_e, valid, maxlen)) == brute_force_decode(z_s, z_e, valid, maxlen)

    def test_rows_at_once_match_brute_force(self):
        # integer ties, MASKED_LOGIT columns and windows longer than L, all
        # rows of a batch decoded in one call
        rng = np.random.default_rng(12)
        for trial in range(300):
            rows, length = int(rng.integers(1, 9)), int(rng.integers(1, 20))
            z_s, z_e = (rng.integers(-2, 3, size=(2, rows, length)).astype(float) if trial % 2
                        else rng.normal(size=(2, rows, length)))
            z_s[rng.random(z_s.shape) < 0.15] = md.MASKED_LOGIT
            z_e[rng.random(z_e.shape) < 0.15] = md.MASKED_LOGIT
            valid = rng.random((rows, length)) > 0.3
            valid[np.arange(rows), rng.integers(length, size=rows)] = True
            maxlen = int(rng.integers(1, length + 6))
            spans = ev.decode_span(z_s, z_e, valid, maxlen)
            assert spans.shape == (rows, 2)
            assert [tuple(s) for s in spans] == [
                brute_force_decode(*row, maxlen) for row in zip(z_s, z_e, valid)]

    def test_no_rows(self):
        empty = np.zeros((0, 5))
        assert ev.decode_span(empty, empty, empty > 0, 3).shape == (0, 2)

    def test_eval_config_refuses_max_answer_length_below_1(self):
        with pytest.raises(InvalidConfig, match="max_answer_length"):
            ev.EvalConfig(max_answer_length=0)


class TestMetrics:
    def test_exact_match_basic(self):
        assert ev.exact_match(["a", "b"], ["a", "b"]) == 1
        assert ev.exact_match(["a", "b"], ["a", "c"]) == 0
        assert ev.exact_match([], []) == 1

    def test_f1_hand_evaluated_overlap(self):
        # overlap 2 of 3 on both sides -> P = R = 2/3 -> F1 = 2/3
        f1 = ev.f1_score(["cat", "sat", "down"], ["the", "cat", "sat"])
        assert abs(f1 - 2 / 3) <= 1e-12

    def test_f1_identical_and_disjoint(self):
        assert ev.f1_score(["x", "y"], ["x", "y"]) == 1.0
        assert ev.f1_score(["x"], ["y"]) == 0.0
        assert ev.f1_score([], []) == 1.0
        assert ev.f1_score([], ["y"]) == 0.0

    def test_f1_counts_multiplicity(self):
        assert abs(ev.f1_score(["a", "a"], ["a"]) - 2 / 3) <= 1e-12

    token_lists = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6)

    @given(token_lists, token_lists)
    @settings(deadline=None)
    def test_f1_symmetry_and_bounds(self, x, y):
        assert ev.f1_score(x, y) == ev.f1_score(y, x)
        assert 0.0 <= ev.f1_score(x, y) <= 1.0

    @given(token_lists)
    @settings(deadline=None)
    def test_exact_match_implies_full_f1(self, x):
        assert ev.f1_score(x, x) == 1.0
        assert ev.exact_match(x, x) == 1


def fixed_layout_samples(n, lang="en"):
    """Passages with the answer always at passage position (1, 1)."""
    samples = []
    for i in range(n):
        samples.append(cp.Sample(
            id=f"s{i}",
            question_tokens=("what", f"cue{i % 3}"),
            passage_tokens=(f"cue{i % 3}", f"ans{i % 4:02d}", "eoa", f"w{i % 5}"),
            gold_start=1,
            gold_end=1,
            passage_lang=lang,
            question_lang=lang,
        ))
    return samples


class TestEvaluate:
    def _zero_model(self, vocab, max_len=16):
        """A model whose every weight is zero: the encoder block's output is
        zero, so its logits are the head biases."""
        config = md.ModelConfig(hidden=8, ffn=8, max_len=max_len)
        model = md.init_model(config, 0, vocab)
        for p in model.params.values():
            p[:] = 0.0
        return model

    def test_oracle_biases_give_perfect_scores(self):
        samples = fixed_layout_samples(10)
        vocab = vocabulary_from_samples(samples)
        model = self._zero_model(vocab)
        # every sample's gold sits at the same packed position
        enc = md.encode_dataset(samples[:1], vocab, model.config.max_len)[0]
        model.params["start_bias"][enc.gold[:, 0]] = 10.0
        model.params["end_bias"][enc.gold[:, 1]] = 10.0
        report = ev.evaluate(model, samples)
        assert report.overall_em == 1.0
        assert report.overall_f1 == 1.0

    def test_score_joins_the_predictions_of_several_models(self):
        # as the translate-train baseline scores each passage language's model
        en, es = fixed_layout_samples(6), fixed_layout_samples(9, lang="es")
        vocab = vocabulary_from_samples(en + es)
        perfect, zero = self._zero_model(vocab), self._zero_model(vocab)
        enc = md.encode_dataset(en[:1], vocab, perfect.config.max_len)[0]
        perfect.params["start_bias"][enc.gold[:, 0]] = 10.0
        perfect.params["end_bias"][enc.gold[:, 1]] = 10.0
        en_pairs, en_skips = ev.predict(perfect, en, ev.EvalConfig())
        es_pairs, es_skips = ev.predict(zero, es, ev.EvalConfig())
        joined = ev.score(es_pairs + en_pairs, en_skips + es_skips)
        alone = [ev.evaluate(perfect, en), ev.evaluate(zero, es)]
        assert joined.cells == alone[0].cells + alone[1].cells
        assert [c.em for c in joined.cells] == [1.0, 0.0]
        assert (joined.n, joined.overall_em) == (15, 6 / 15)

    def test_uniform_logits_match_first_position_baseline(self):
        # all-equal logits decode to the first valid pair; EM must equal the
        # fraction of golds sitting exactly there
        records = cp.generate_synthetic_corpus(
            40, ["en"], cp.NoiseSpec(seed=1),
            cp.TaskSpec(seed=1, passage_min=4, passage_max=7, rare_vocab_size=20),
        )
        samples = cp.pair(records, ["en"])[0]
        vocab = vocabulary_from_samples(samples)
        model = self._zero_model(vocab, max_len=32)
        expected = sum(1 for s in samples if (s.gold_start, s.gold_end) == (0, 0)) / len(samples)
        report = ev.evaluate(model, samples)
        assert report.overall_em == expected

    def test_counts_include_skips(self):
        samples = fixed_layout_samples(6)
        long_passage = tuple(f"w{i}" for i in range(40))
        samples.append(cp.Sample(
            id="long", question_tokens=("what",), passage_tokens=long_passage,
            gold_start=39, gold_end=39, passage_lang="en", question_lang="en",
        ))
        vocab = vocabulary_from_samples(samples)
        model = self._zero_model(vocab)
        report = ev.evaluate(model, samples)
        assert report.skips == 1
        assert sum(c.n for c in report.cells) == 6
        assert report.n == 6

    def test_order_invariance(self):
        samples = fixed_layout_samples(8) + fixed_layout_samples(8, lang="es")
        vocab = vocabulary_from_samples(samples)
        model = self._zero_model(vocab)
        forward = ev.evaluate(model, samples)
        backward = ev.evaluate(model, samples[::-1])
        assert forward.to_dict() == backward.to_dict()

    def test_report_json_round_trip(self, tmp_path):
        samples = fixed_layout_samples(5)
        vocab = vocabulary_from_samples(samples)
        report = ev.evaluate(self._zero_model(vocab), samples)
        cp.write_json(tmp_path / "report.json", report.to_dict())
        loaded = ev.EvalReport.load(tmp_path / "report.json")
        assert loaded.to_dict() == report.to_dict()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_report_is_refused_before_any_file(self, tmp_path, value):
        with pytest.raises(ValueError):
            cp.write_json(tmp_path / "report.json", ev.EvalReport(overall_em=value).to_dict())
        assert list(tmp_path.iterdir()) == []


def report_from_cells(cells):
    report = ev.EvalReport(
        cells=[ev.CellMetrics(*c) for c in cells],
    )
    report.n = sum(c.n for c in report.cells)
    report.overall_em = sum(c.em * c.n for c in report.cells) / report.n
    report.overall_f1 = sum(c.f1 * c.n for c in report.cells) / report.n
    return report


class TestCompareRuns:
    def test_single_report_has_zero_deltas(self):
        report = report_from_cells([("en", "en", 0.5, 0.6, 10)])
        comparison = ev.compare_runs([report], ["only"])
        assert comparison["rows"][0]["cells"]["en/en"]["em_delta"] == 0.0

    def test_identical_reports_have_zero_deltas(self):
        report = report_from_cells([("en", "en", 0.5, 0.6, 10), ("en", "es", 0.4, 0.5, 10)])
        comparison = ev.compare_runs([report, report], ["a", "b"])
        for row in comparison["rows"]:
            for cell in row["cells"].values():
                assert cell["em_delta"] == 0.0 and cell["f1_delta"] == 0.0

    def test_delta_arithmetic(self):
        base = report_from_cells([("en", "en", 0.50, 0.70, 10)])
        run = report_from_cells([("en", "en", 0.54, 0.73, 10)])
        comparison = ev.compare_runs([base, run], ["base", "run"], baseline=0)
        cell = comparison["rows"][1]["cells"]["en/en"]
        assert abs(cell["em_delta"] - 0.04) <= 1e-12
        assert abs(cell["f1_delta"] - 0.03) <= 1e-12

    def test_mismatched_grids_rejected(self):
        a = report_from_cells([("en", "en", 0.5, 0.6, 10)])
        b = report_from_cells([("es", "es", 0.5, 0.6, 10)])
        with pytest.raises(InvalidConfig):
            ev.compare_runs([a, b], ["a", "b"])

    def test_render_marks_baseline(self):
        report = report_from_cells([("en", "en", 0.5, 0.6, 10)])
        text = ev.render_comparison(ev.compare_runs([report, report], ["a", "b"], baseline=1))
        lines = text.splitlines()
        assert any(line.endswith("*") and line.startswith("b") for line in lines)
        assert "0.500 / 0.600" in text

