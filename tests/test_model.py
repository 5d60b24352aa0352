import numpy as np
import pytest

from branchdistill import corpus as cp
from branchdistill import distill as ds
from branchdistill import model as md
from branchdistill import numerics as nm
from branchdistill.errors import InvalidConfig, SpanOutOfWindow, StateError

from _gradcheck import check_gradients


def simple_sample(question=("q1",), passage=("a", "b"), gold=(0, 0), langs=("en", "en")):
    return cp.Sample(
        id="s0",
        question_tokens=tuple(question),
        passage_tokens=tuple(passage),
        gold_start=gold[0],
        gold_end=gold[1],
        passage_lang=langs[0],
        question_lang=langs[1],
    )


def task_samples(n=6, seed=0, **task_kwargs):
    records = cp.generate_synthetic_corpus(
        n, ["en", "es"], cp.NoiseSpec(seed=seed), cp.TaskSpec(seed=seed, **task_kwargs)
    )
    return cp.build_language_branches(records, ["en", "es"]).branches["en"].samples


def small_model(samples, hidden=8, ffn=12, max_len=32, layers=1, seed=0):
    vocab = md.Vocabulary.from_samples(samples)
    config = md.ModelConfig(vocab_size=vocab.size, hidden=hidden, ffn=ffn,
                            max_len=max_len, layers=layers)
    return md.init_model(config, seed=seed), vocab


class TestVocabulary:
    def test_known_tokens_get_stable_ids(self):
        vocab = md.Vocabulary(["beta", "alpha"])
        assert vocab.token_id("alpha") == md.FIRST_TOKEN_ID
        assert vocab.token_id("beta") == md.FIRST_TOKEN_ID + 1
        assert vocab.size == md.FIRST_TOKEN_ID + 2

    def test_unseen_token_hashes_into_bucket_range(self):
        vocab = md.Vocabulary(["a"])
        bucket = vocab.token_id("never-seen")
        assert md.OOV_BASE_ID <= bucket < md.OOV_BASE_ID + md.OOV_BUCKETS
        # deterministic across instances
        assert md.Vocabulary(["b"]).token_id("never-seen") == bucket

    def test_reserved_marker_rejected(self):
        with pytest.raises(InvalidConfig):
            md.Vocabulary([cp.ANSWER_OPEN])

    def test_save_load_round_trip(self, tmp_path):
        vocab = md.Vocabulary(["x", "y", "z"])
        vocab.save(tmp_path / "vocab.json")
        loaded = md.Vocabulary.load(tmp_path / "vocab.json")
        assert loaded.tokens == vocab.tokens


class TestTokenizeAndIndex:
    def test_packed_layout(self):
        sample = simple_sample()
        vocab = md.Vocabulary(["q1", "a", "b"])
        enc = md.tokenize_and_index(sample, vocab, max_len=8)
        expected = [
            md.START_ID, vocab.token_id("q1"), md.SEP_ID,
            vocab.token_id("a"), vocab.token_id("b"),
            md.PAD_ID, md.PAD_ID, md.PAD_ID,
        ]
        assert enc.token_ids.tolist() == expected
        assert enc.separator_position == 2
        assert enc.passage_offset == 3
        assert enc.attention_mask.tolist() == [True] * 5 + [False] * 3
        assert enc.passage_mask.tolist() == [False] * 3 + [True] * 2 + [False] * 3
        assert (enc.gold_start, enc.gold_end) == (3, 3)

    def test_gold_span_beyond_window(self):
        sample = simple_sample(passage=tuple("abcdefgh"), gold=(7, 7))
        vocab = md.Vocabulary(list("abcdefgh") + ["q1"])
        with pytest.raises(SpanOutOfWindow):
            md.tokenize_and_index(sample, vocab, max_len=8)

    def test_question_fills_window(self):
        sample = simple_sample(question=tuple(f"q{i}" for i in range(10)))
        vocab = md.Vocabulary([f"q{i}" for i in range(10)] + ["a", "b"])
        with pytest.raises(SpanOutOfWindow):
            md.tokenize_and_index(sample, vocab, max_len=8)

    def test_encode_dataset_counts_skips(self):
        samples = [simple_sample(), simple_sample(passage=tuple("abcdefgh"), gold=(7, 7))]
        vocab = md.Vocabulary(list("abcdefgh") + ["q1"])
        encoded, kept, skipped = md.encode_dataset(samples, vocab, max_len=8)
        assert len(encoded) == len(kept) == 1
        assert skipped == 1


class TestInit:
    def test_same_seed_same_parameters(self):
        config = md.ModelConfig(vocab_size=md.FIRST_TOKEN_ID + 5, hidden=8, ffn=8, max_len=16)
        a = md.init_model(config, seed=3)
        b = md.init_model(config, seed=3)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_weight_statistics(self):
        # > 10k parameters; sample mean within the 3-sigma band around 0
        config = md.ModelConfig(vocab_size=400, hidden=32, ffn=64, max_len=64)
        model = md.init_model(config, seed=1)
        flat = np.concatenate([p.ravel() for p in model.params.values()])
        assert flat.size >= 10_000
        assert abs(flat.mean()) <= 0.001
        assert abs(flat.std() - 0.01) <= 0.001

    def test_positional_table_row_zero(self):
        table = md.positional_table(max_len=4, hidden=6)
        np.testing.assert_allclose(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0], atol=0)

    def test_negative_seed_rejected(self):
        config = md.ModelConfig(vocab_size=md.FIRST_TOKEN_ID + 1)
        with pytest.raises(InvalidConfig):
            md.init_model(config, seed=-1)


class TestForward:
    def test_zero_heads_give_zero_logits_on_passage(self):
        samples = task_samples()
        model, vocab = small_model(samples)
        for name in ("start_vec", "start_bias", "end_vec", "end_bias"):
            model.params[name][:] = 0.0
        enc = md.tokenize_and_index(samples[0], vocab, model.config.max_len)
        result = md.forward_batch(model, [enc])
        z_s, z_e = result.z_s[0], result.z_e[0]
        np.testing.assert_array_equal(z_s[enc.passage_mask], 0.0)
        np.testing.assert_array_equal(z_e[enc.passage_mask], 0.0)
        assert np.all(z_s[~enc.passage_mask] == md.MASKED_LOGIT)

    def test_deterministic(self):
        samples = task_samples()
        model, vocab = small_model(samples)
        enc = md.tokenize_and_index(samples[0], vocab, model.config.max_len)
        a = md.forward_batch(model, [enc])
        b = md.forward_batch(model, [enc])
        np.testing.assert_array_equal(a.z_s, b.z_s)
        np.testing.assert_array_equal(a.z_e, b.z_e)

    def test_zero_layers_is_embedding_plus_positions(self):
        samples = task_samples()
        model, vocab = small_model(samples, layers=0)
        enc = md.tokenize_and_index(samples[0], vocab, model.config.max_len)
        H = md.forward_batch(model, [enc]).H[0]
        n = enc.passage_offset + enc.passage_window
        assert H.shape[0] == n == enc.attention_mask.sum()
        expected = model.params["embed"][enc.token_ids] + model.pos_table
        np.testing.assert_array_equal(H, expected[:n])

    def test_masked_positions_carry_no_probability(self):
        samples = task_samples()
        model, vocab = small_model(samples)
        enc = md.tokenize_and_index(samples[0], vocab, model.config.max_len)
        z_s = md.forward_batch(model, [enc]).z_s[0]
        p = nm.softmax_temperature(z_s, 1.0)
        assert p[~enc.passage_mask].max() <= 1e-6

    def test_batch_permutation_covariance(self):
        samples = task_samples(8)
        model, vocab = small_model(samples)
        encoded = [md.tokenize_and_index(s, vocab, model.config.max_len) for s in samples[:4]]
        forward_result = md.forward_batch(model, encoded)
        permuted = md.forward_batch(model, encoded[::-1])
        np.testing.assert_array_equal(forward_result.z_s, permuted.z_s[::-1])
        np.testing.assert_array_equal(forward_result.z_e, permuted.z_e[::-1])


def named_grads(model, cache, grad_z_s, grad_z_e):
    """``md.backward``'s flat gradient, as one view per parameter name."""
    return md.param_views(model.config, md.backward(model, cache, grad_z_s, grad_z_e))


def operating_point(layers, seed, max_len=16):
    """A model at a representative operating point, not the tiny init scale,
    a batch of three encoded samples, and logit probes that are zero at
    masked positions."""
    samples = task_samples(4, passage_min=5, passage_max=8)
    model, vocab = small_model(samples, max_len=max_len, layers=layers)
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p[:] = rng.normal(scale=0.3, size=p.shape)
    encoded = [md.tokenize_and_index(s, vocab, max_len) for s in samples[:3]]
    passage = np.stack([e.passage_mask for e in encoded])
    probes = (rng.normal(size=passage.shape) * passage, rng.normal(size=passage.shape) * passage)
    return model, encoded, probes


class TestBackward:
    def test_zero_grad_in_zero_grad_out(self):
        samples = task_samples()
        model, vocab = small_model(samples)
        enc = md.tokenize_and_index(samples[0], vocab, model.config.max_len)
        cache = md.forward_batch(model, [enc])
        grads = named_grads(model, cache, np.zeros_like(cache.z_s), np.zeros_like(cache.z_e))
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_position_bias_gradient_is_passthrough(self):
        samples = task_samples()
        model, vocab = small_model(samples)
        enc = md.tokenize_and_index(samples[0], vocab, model.config.max_len)
        cache = md.forward_batch(model, [enc])
        rng = np.random.default_rng(0)
        g_s = rng.normal(size=cache.z_s.shape)
        grads = named_grads(model, cache, g_s, np.zeros_like(cache.z_e))
        np.testing.assert_array_equal(grads["start_bias"][enc.passage_mask],
                                      g_s[0][enc.passage_mask])
        np.testing.assert_array_equal(grads["start_bias"][~enc.passage_mask], 0.0)

    def test_backward_leaves_cache_and_parameters_unchanged(self):
        model, encoded, (g_s, g_e) = operating_point(layers=2, seed=6)
        before = {name: p.copy() for name, p in model.params.items()}
        cache = md.forward_batch(model, encoded)
        outputs = (cache.z_s.copy(), cache.z_e.copy(), cache.H.copy())
        first = named_grads(model, cache, g_s, g_e)
        second = named_grads(model, cache, g_s, g_e)
        for kept, now in zip(outputs, (cache.z_s, cache.z_e, cache.H)):
            np.testing.assert_array_equal(kept, now)
        assert list(first) == [name for name, _ in md.parameter_layout(model.config)]
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])
            np.testing.assert_array_equal(model.params[name], before[name])
        with pytest.raises(StateError):
            md.backward(model, None, g_s, g_e)

    def test_gradients_at_masked_logits_are_ignored(self):
        # masked positions hold the constant MASKED_LOGIT, so no parameter moves them
        model, encoded, _ = operating_point(layers=2, seed=7)
        cache = md.forward_batch(model, encoded)
        outside = ~cache.passage
        assert outside.any()
        rng = np.random.default_rng(7)
        grads = named_grads(model, cache, rng.normal(size=outside.shape) * outside,
                            rng.normal(size=outside.shape) * outside)
        for name, g in grads.items():
            np.testing.assert_array_equal(g, 0.0, err_msg=name)

    def test_batch_gradient_is_sum_of_per_sample_gradients(self):
        model, encoded, (g_s, g_e) = operating_point(layers=2, seed=8)
        batch = named_grads(model, md.forward_batch(model, encoded), g_s, g_e)
        alone = [
            named_grads(model, md.forward_batch(model, [enc]), g_s[i:i + 1], g_e[i:i + 1])
            for i, enc in enumerate(encoded)
        ]
        for name in batch:
            np.testing.assert_allclose(batch[name], sum(a[name] for a in alone),
                                       rtol=1e-10, atol=1e-12, err_msg=name)

    def test_backward_is_linear_in_logit_gradients(self):
        # a training step combines lambda1 * d_nll + lambda2 * d_kd before one backward pass
        model, encoded, (a_s, a_e) = operating_point(layers=1, seed=9)
        rng = np.random.default_rng(9)
        b_s, b_e = rng.normal(size=a_s.shape), rng.normal(size=a_e.shape)
        cache = md.forward_batch(model, encoded)
        grads_a = named_grads(model, cache, a_s, a_e)
        grads_b = named_grads(model, cache, b_s, b_e)
        for lambda1, lambda2 in ((0.5, 0.5), (0.3, 0.9), (1.0, 0.0)):
            combined = named_grads(model, cache, lambda1 * a_s + lambda2 * b_s,
                                   lambda1 * a_e + lambda2 * b_e)
            for name in combined:
                np.testing.assert_allclose(
                    combined[name], lambda1 * grads_a[name] + lambda2 * grads_b[name],
                    rtol=1e-10, atol=1e-12, err_msg=name,
                )
        # the hard-label-only weighting leaves the first gradient's bits alone
        for name in combined:
            np.testing.assert_array_equal(combined[name], grads_a[name])

    def test_full_model_gradient_against_finite_differences(self):
        samples = task_samples(4, passage_min=5, passage_max=8)
        model, vocab = small_model(samples, max_len=16)
        # a representative operating point, not the tiny init scale
        rng = np.random.default_rng(5)
        for p in model.params.values():
            p[:] = rng.normal(scale=0.3, size=p.shape)
        encoded = [md.tokenize_and_index(s, vocab, 16) for s in samples[:3]]
        gold_s = np.array([e.gold_start for e in encoded])
        gold_e = np.array([e.gold_end for e in encoded])

        result = md.forward_batch(model, encoded)
        _, dz_s, dz_e = ds.batch_nll(result.z_s, result.z_e, gold_s, gold_e)
        grads = named_grads(model, result, dz_s, dz_e)

        def value():
            fresh = md.forward_batch(model, encoded)
            return ds.batch_nll(fresh.z_s, fresh.z_e, gold_s, gold_e)[0]

        check_gradients(value, model.params, grads)


class TestBackwardPasses:
    """The written-out backward passes against central finite differences."""

    def test_layer_norm_pair(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 5))
        gain = rng.normal(size=5)
        offset = rng.normal(size=5)
        probe = rng.normal(size=(2, 3, 5))

        _, cache = md.layer_norm(x, gain, offset)
        dx, d_gain, d_offset = md.layer_norm_backward(probe, gain, cache)

        def value():
            return float((md.layer_norm(x, gain, offset)[0] * probe).sum())

        check_gradients(
            value,
            {"x": x, "gain": gain, "offset": offset},
            {"x": dx, "gain": d_gain, "offset": d_offset},
        )

    def test_layer_norm_standardizes_each_row(self):
        rng = np.random.default_rng(10)
        x = rng.normal(loc=3.0, scale=2.0, size=(2, 3, 6))
        gain = rng.normal(size=6)
        offset = rng.normal(size=6)

        plain, _ = md.layer_norm(x, np.ones(6), np.zeros(6))
        np.testing.assert_allclose(plain.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(plain.var(axis=-1), 1.0, atol=1e-5)
        affine, _ = md.layer_norm(x, gain, offset)
        np.testing.assert_array_equal(affine, plain * gain + offset)

    @staticmethod
    def _check_probed_gradients(model, encoded, probes):
        g_s, g_e = probes
        grads = named_grads(model, md.forward_batch(model, encoded), g_s, g_e)

        def value():
            fresh = md.forward_batch(model, encoded)
            return float((g_s * fresh.z_s).sum() + (g_e * fresh.z_e).sum())

        check_gradients(value, model.params, grads)

    def test_encoder_block_with_two_layers(self):
        # attention, FFN and both layer norms of each block, and the second
        # block's input gradient flowing into the first
        self._check_probed_gradients(*operating_point(layers=2, seed=4))

    def test_heads_and_embedding_scatter(self):
        # without blocks, every repeated token id adds its rows' head
        # gradients into one embedding row
        model, encoded, probes = operating_point(layers=0, seed=5)
        ids = np.concatenate([e.token_ids for e in encoded])
        assert len(np.unique(ids)) < len(ids)
        self._check_probed_gradients(model, encoded, probes)


class TestTrimmedBatch:
    """Each batch runs over its longest real input n, not the whole window."""

    def test_mixed_lengths_match_single_sample_passes(self):
        samples = task_samples(8)
        model, vocab = small_model(samples, layers=2)
        max_len = model.config.max_len
        encoded = [md.tokenize_and_index(s, vocab, max_len) for s in samples]
        lengths = [e.passage_offset + e.passage_window for e in encoded]
        assert len(set(lengths)) > 1
        batch = md.forward_batch(model, encoded)
        assert batch.H.shape[1] == max(lengths) < max_len
        for row, enc in enumerate(encoded):
            alone = md.forward_batch(model, [enc])
            assert alone.H.shape[1] == lengths[row]
            for z, z_alone in ((batch.z_s, alone.z_s), (batch.z_e, alone.z_e)):
                assert z[row].shape == (max_len,)
                np.testing.assert_array_equal(z[row][~enc.passage_mask], md.MASKED_LOGIT)
                # sums over positions round differently at another n, so not bitwise
                np.testing.assert_allclose(z[row], z_alone[0], rtol=1e-12, atol=0)

    def test_input_filling_the_window(self):
        max_len = 16
        samples = task_samples(4, passage_min=12, passage_max=14)
        model, vocab = small_model(samples, max_len=max_len)
        full = md.tokenize_and_index(samples[0], vocab, max_len)
        assert full.passage_offset + full.passage_window == max_len
        short = md.tokenize_and_index(simple_sample(), vocab, max_len)
        fwd = md.forward_batch(model, [full, short])
        assert fwd.H.shape == (2, max_len, model.config.hidden)
        p = model.params
        last = fwd.H[0, -1] @ p["start_vec"] + p["start_bias"][-1]
        np.testing.assert_allclose(fwd.z_s[0, -1], last, rtol=1e-12)
        np.testing.assert_array_equal(fwd.z_s[1][~short.passage_mask], md.MASKED_LOGIT)
        g_s = np.zeros_like(fwd.z_s)
        g_s[0, -1] = 1.0
        grads = named_grads(model, fwd, g_s, np.zeros_like(fwd.z_e))
        assert grads["start_bias"][-1] == 1.0

    def test_gradients_of_a_trimmed_batch(self):
        model, encoded, probes = operating_point(layers=2, seed=11, max_len=32)
        n = max(e.passage_offset + e.passage_window for e in encoded)
        assert n < model.config.max_len
        fwd = md.forward_batch(model, encoded)
        assert fwd.H.shape[1] == n
        grads = named_grads(model, fwd, *probes)
        for name in ("start_bias", "end_bias"):
            assert grads[name].shape == (model.config.max_len,)
            np.testing.assert_array_equal(grads[name][n:], 0.0)
        TestBackwardPasses._check_probed_gradients(model, encoded, probes)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        samples = task_samples()
        model, vocab = small_model(samples, layers=2)
        path = tmp_path / "model.ckpt"
        md.save_model(model, path)
        loaded = md.load_model(path)
        assert loaded.config == model.config
        assert loaded.seed == model.seed
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])
        enc = md.tokenize_and_index(samples[0], vocab, model.config.max_len)
        np.testing.assert_array_equal(md.forward_batch(model, [enc]).z_s,
                                      md.forward_batch(loaded, [enc]).z_s)

    @pytest.mark.parametrize("corrupt", [
        lambda blob: blob[:3],
        lambda blob: blob[:10],
        lambda blob: blob[:4] + b"\xff" + blob[5:],
        lambda blob: blob[:4] + b"[" + blob[5:],
        lambda blob: blob[:-1],
        lambda blob: blob[:-8],
        lambda blob: blob + b"\0",
    ], ids=["no_length", "cut_header", "not_utf8", "not_json", "cut_value", "cut_block",
            "trailing_byte"])
    def test_corrupt_checkpoint_is_invalid_config(self, tmp_path, corrupt):
        model, _ = small_model(task_samples())
        path = tmp_path / "model.ckpt"
        md.save_model(model, path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(InvalidConfig, match="is corrupt"):
            md.load_model(path)

    def test_body_is_the_flat_vector(self, tmp_path):
        model, _ = small_model(task_samples(), layers=2)
        path = tmp_path / "model.ckpt"
        md.save_model(model, path)
        data = path.read_bytes()
        body = data[4 + int.from_bytes(data[:4], "little"):]
        assert body == model.flat.astype("<f8").tobytes()

    def test_save_twice_is_byte_identical(self, tmp_path):
        model, _ = small_model(task_samples())
        md.save_model(model, tmp_path / "a.ckpt")
        md.save_model(model, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
