import hashlib
import json

import numpy as np
import pytest

from branchdistill import corpus as cp
from branchdistill import distill as ds
from branchdistill import model as md
from branchdistill.errors import InvalidConfig

from _gradcheck import check_gradients
from _oracles import flat_gradient, vocabulary_from_samples, vocabulary_of_size


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
    samples, _, _ = cp.pair(records, ["en", "es"])
    return [s for s in samples if s.passage_lang == "en"]


def small_model(samples, hidden=8, ffn=12, max_len=32, seed=0):
    vocab = vocabulary_from_samples(samples)
    config = md.ModelConfig(hidden=hidden, ffn=ffn, max_len=max_len)
    return md.init_model(config, seed, vocab), vocab


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

    def test_unseen_tokens_are_hashed_once_to_their_buckets(self, monkeypatch):
        vocab = md.Vocabulary(["a"])
        unseen = [f"tok{i}" for i in range(300)]
        expected = [md.OOV_BASE_ID + int(hashlib.sha1(t.encode("utf-8")).hexdigest(), 16)
                    % md.OOV_BUCKETS for t in unseen]
        assert [vocab.token_id(t) for t in unseen] == expected

        def sha1(*args):
            raise AssertionError("a token was hashed again")
        monkeypatch.setattr(md.hashlib, "sha1", sha1)
        assert [vocab.token_id(t) for t in unseen] == expected
        # the memo is the process's: a fresh vocabulary, as each loaded
        # checkpoint makes, hashes none of them again
        assert [md.Vocabulary(["b"]).token_id(t) for t in unseen] == expected
        # the memo gives no token a row
        assert vocab.size == md.FIRST_TOKEN_ID + 1 and vocab.to_dict()["tokens"] == ["a"]

    def test_reserved_marker_rejected(self):
        with pytest.raises(InvalidConfig):
            md.Vocabulary([cp.ANSWER_OPEN])

    def test_save_load_round_trip(self, tmp_path):
        vocab = md.Vocabulary(["x", "y", "z"])
        cp.write_json(tmp_path / "vocab.json", vocab.to_dict())
        loaded = cp.read_json(tmp_path / "vocab.json", "vocabulary", md.Vocabulary.from_dict)
        assert loaded.tokens == vocab.tokens


class TestEncodeDataset:
    def test_ids_do_not_depend_on_the_memo(self):
        md.oov_id.cache_clear()
        samples = task_samples(n=12)
        # half the samples' tokens get rows, so the rest hash to buckets
        vocab = vocabulary_from_samples(samples[: len(samples) // 2])
        first = md.encode_dataset(samples, vocab, max_len=32)[0].ids
        assert ((first >= md.OOV_BASE_ID) & (first < md.FIRST_TOKEN_ID)).any()
        again = md.encode_dataset(samples, vocab, max_len=32)[0].ids
        assert again.tobytes() == first.tobytes()

    def test_packed_layout(self):
        sample = simple_sample()
        vocab = md.Vocabulary(["q1", "a", "b"])
        enc, _, _ = md.encode_dataset([sample], vocab, max_len=8)
        expected = [
            md.START_ID, vocab.token_id("q1"), md.SEP_ID,
            vocab.token_id("a"), vocab.token_id("b"),
            md.PAD_ID, md.PAD_ID, md.PAD_ID,
        ]
        assert enc.ids.tolist() == [expected]
        assert enc.ids[0, enc.offset[0] - 1] == md.SEP_ID
        assert enc.offset.tolist() == [3]
        assert enc.end.tolist() == [5]
        assert enc.passage_mask().tolist() == [[False] * 3 + [True] * 2 + [False] * 3]
        assert enc.gold.tolist() == [[3, 3]]

    def test_encode_dataset_counts_skips(self):
        # skipped: a gold span that ends past the window, and a question that fills it
        samples = [simple_sample(), simple_sample(passage=tuple("abcdefgh"), gold=(7, 7)),
                   simple_sample(question=tuple(f"q{i}" for i in range(10)))]
        vocab = md.Vocabulary(list("abcdefgh") + [f"q{i}" for i in range(10)])
        encoded, kept, skipped = md.encode_dataset(samples, vocab, max_len=8)
        assert len(encoded) == len(kept) == 1 and kept[0] is samples[0]
        assert skipped == 2
        for sample in samples[1:]:
            assert md.encode_dataset([sample], vocab, max_len=8)[1:] == ([], 1)


class TestInit:
    def test_same_seed_same_parameters(self):
        config = md.ModelConfig(hidden=8, ffn=8, max_len=16)
        vocab = vocabulary_of_size(md.FIRST_TOKEN_ID + 5)
        a = md.init_model(config, 3, vocab)
        b = md.init_model(config, 3, vocab)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_weight_statistics(self):
        # > 10k parameters; sample mean within the 3-sigma band around 0
        config = md.ModelConfig(hidden=32, ffn=64, max_len=64)
        model = md.init_model(config, 1, vocabulary_of_size(400))
        flat = np.concatenate([p.ravel() for p in model.params.values()])
        assert flat.size >= 10_000
        assert abs(flat.mean()) <= 0.001
        assert abs(flat.std() - 0.01) <= 0.001

    def test_positional_table_row_zero(self):
        table = md.positional_table(max_len=4, hidden=6)
        np.testing.assert_allclose(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0], atol=0)


class TestForward:
    def test_zero_heads_give_zero_logits_on_passage(self):
        samples = task_samples()
        model, vocab = small_model(samples)
        for name in ("start_vec", "start_bias", "end_vec", "end_bias"):
            model.params[name][:] = 0.0
        enc = md.encode_dataset(samples[:1], vocab, model.config.max_len)[0]
        result = md.forward_batch(model, enc)
        z_s, z_e = result.z[0]
        passage = enc.passage_mask()[0]
        np.testing.assert_array_equal(z_s[passage], 0.0)
        np.testing.assert_array_equal(z_e[passage], 0.0)
        assert np.all(z_s[~passage] == md.MASKED_LOGIT)

    def test_deterministic(self):
        samples = task_samples()
        model, vocab = small_model(samples)
        enc = md.encode_dataset(samples[:1], vocab, model.config.max_len)[0]
        a = md.forward_batch(model, enc)
        b = md.forward_batch(model, enc)
        np.testing.assert_array_equal(a.z, b.z)

    def test_masked_positions_carry_no_probability(self):
        samples = task_samples()
        model, vocab = small_model(samples)
        enc = md.encode_dataset(samples[:1], vocab, model.config.max_len)[0]
        z_s = md.forward_batch(model, enc).z[0, 0]
        p = ds.softmax_temperature(z_s, 1.0)
        assert p[~enc.passage_mask()[0]].max() <= 1e-6

    def test_batch_permutation_covariance(self):
        samples = task_samples(8)
        model, vocab = small_model(samples)
        encoded, _, _ = md.encode_dataset(samples[:4], vocab, model.config.max_len)
        assert len(encoded) == 4
        forward_result = md.forward_batch(model, encoded)
        permuted = md.forward_batch(model, encoded[::-1])
        np.testing.assert_array_equal(forward_result.z, permuted.z[::-1])


def named_grads(model, cache, dz):
    """``md.backward``'s flat gradient, as one view per parameter name."""
    return md.param_views(model.config, model.vocab.size, flat_gradient(model, cache, dz))


def operating_point(seed, max_len=16):
    """A model at a representative operating point, not the tiny init scale,
    a batch of three encoded samples, and a (3, 2, L) block of logit probes
    that are zero at masked positions."""
    samples = task_samples(4, passage_min=5, passage_max=8)
    model, vocab = small_model(samples, max_len=max_len)
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p[:] = rng.normal(scale=0.3, size=p.shape)
    encoded, _, _ = md.encode_dataset(samples[:3], vocab, max_len)
    assert len(encoded) == 3
    passage = encoded.passage_mask()
    probes = np.stack([rng.normal(size=passage.shape) * passage for _ in range(2)], axis=1)
    return model, encoded, probes


class TestBackward:
    def test_zero_grad_in_zero_grad_out(self):
        samples = task_samples()
        model, vocab = small_model(samples)
        enc = md.encode_dataset(samples[:1], vocab, model.config.max_len)[0]
        cache = md.forward_batch(model, enc)
        grads = named_grads(model, cache, np.zeros_like(cache.z))
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_position_bias_gradient_is_passthrough(self):
        samples = task_samples()
        model, vocab = small_model(samples)
        enc = md.encode_dataset(samples[:1], vocab, model.config.max_len)[0]
        cache = md.forward_batch(model, enc)
        rng = np.random.default_rng(0)
        dz = np.zeros_like(cache.z)
        dz[:, 0] = rng.normal(size=dz[:, 0].shape)
        grads = named_grads(model, cache, dz)
        passage = enc.passage_mask()[0]
        np.testing.assert_array_equal(grads["start_bias"][passage], dz[0, 0][passage])
        np.testing.assert_array_equal(grads["start_bias"][~passage], 0.0)

    def test_backward_leaves_cache_and_parameters_unchanged(self):
        model, encoded, dz = operating_point(seed=6)
        before = {name: p.copy() for name, p in model.params.items()}
        cache = md.forward_batch(model, encoded)
        outputs = (cache.z.copy(), cache.H.copy())
        first = named_grads(model, cache, dz)
        second = named_grads(model, cache, dz)
        for kept, now in zip(outputs, (cache.z, cache.H)):
            np.testing.assert_array_equal(kept, now)
        layout = md.parameter_layout(model.config, model.vocab.size)
        assert list(first) == [name for name, _ in layout]
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])
            np.testing.assert_array_equal(model.params[name], before[name])

    def test_gradients_at_masked_logits_are_ignored(self):
        # masked positions hold the constant MASKED_LOGIT, so no parameter moves them
        model, encoded, _ = operating_point(seed=7)
        cache = md.forward_batch(model, encoded)
        outside = ~cache.passage
        assert outside.any()
        rng = np.random.default_rng(7)
        grads = named_grads(model, cache, np.stack(
            [rng.normal(size=outside.shape) * outside for _ in range(2)], axis=1))
        for name, g in grads.items():
            np.testing.assert_array_equal(g, 0.0, err_msg=name)

    def test_batch_gradient_is_sum_of_per_sample_gradients(self):
        model, encoded, dz = operating_point(seed=8)
        batch = named_grads(model, md.forward_batch(model, encoded), dz)
        alone = [
            named_grads(model, md.forward_batch(model, encoded[i:i + 1]), dz[i:i + 1])
            for i in range(len(encoded))
        ]
        for name in batch:
            np.testing.assert_allclose(batch[name], sum(a[name] for a in alone),
                                       rtol=1e-10, atol=1e-12, err_msg=name)

    def test_backward_is_linear_in_logit_gradients(self):
        # a training step combines lambda1 * d_nll + lambda2 * d_kd before one backward pass
        model, encoded, a = operating_point(seed=9)
        rng = np.random.default_rng(9)
        b = np.stack([rng.normal(size=a[:, 0].shape) for _ in range(2)], axis=1)
        cache = md.forward_batch(model, encoded)
        grads_a = named_grads(model, cache, a)
        grads_b = named_grads(model, cache, b)
        for lambda1, lambda2 in ((0.5, 0.5), (0.3, 0.9), (1.0, 0.0)):
            combined = named_grads(model, cache, lambda1 * a + lambda2 * b)
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
        encoded, _, _ = md.encode_dataset(samples[:3], vocab, 16)
        assert len(encoded) == 3
        result = md.forward_batch(model, encoded)
        _, dz = ds.batch_nll(result.z, encoded.gold)
        grads = named_grads(model, result, dz)

        def value():
            fresh = md.forward_batch(model, encoded)
            return ds.batch_nll(fresh.z, encoded.gold)[0]

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
        grads = named_grads(model, md.forward_batch(model, encoded), probes)

        def value():
            fresh = md.forward_batch(model, encoded)
            return float((probes * fresh.z).sum())

        check_gradients(value, model.params, grads)

    def test_heads_and_embedding_scatter(self):
        # every repeated token id adds its rows' gradients, through the
        # block, into one embedding row
        model, encoded, probes = operating_point(seed=5)
        ids = encoded.ids.ravel()
        assert len(np.unique(ids)) < len(ids)
        self._check_probed_gradients(model, encoded, probes)


class TestTrimmedBatch:
    """Each batch runs over its longest real input n, not the whole window."""

    def test_mixed_lengths_match_single_sample_passes(self):
        samples = task_samples(8)
        model, vocab = small_model(samples)
        max_len = model.config.max_len
        encoded, _, _ = md.encode_dataset(samples, vocab, max_len)
        assert len(encoded) == len(samples)
        lengths = encoded.end.tolist()
        assert len(set(lengths)) > 1
        batch = md.forward_batch(model, encoded)
        assert batch.H.shape[1] == max(lengths) < max_len
        for row, passage in enumerate(encoded.passage_mask()):
            alone = md.forward_batch(model, encoded[row:row + 1])
            assert alone.H.shape[1] == lengths[row]
            assert batch.z[row].shape == (2, max_len)
            np.testing.assert_array_equal(batch.z[row][:, ~passage], md.MASKED_LOGIT)
            # sums over positions round differently at another n, so not bitwise
            np.testing.assert_allclose(batch.z[row], alone.z[0], rtol=1e-12, atol=0)

    def test_input_filling_the_window(self):
        max_len = 16
        samples = task_samples(4, passage_min=12, passage_max=14)
        model, vocab = small_model(samples, max_len=max_len)
        encoded, _, _ = md.encode_dataset([samples[0], simple_sample()], vocab, max_len)
        full, short = encoded[:1], encoded[1:]
        assert full.end[0] == max_len
        fwd = md.forward_batch(model, encoded)
        assert fwd.H.shape == (2, max_len, model.config.hidden)
        p = model.params
        last = fwd.H[0, -1] @ p["start_vec"] + p["start_bias"][-1]
        np.testing.assert_allclose(fwd.z[0, 0, -1], last, rtol=1e-12)
        np.testing.assert_array_equal(fwd.z[1, 0][~short.passage_mask()[0]], md.MASKED_LOGIT)
        dz = np.zeros_like(fwd.z)
        dz[0, 0, -1] = 1.0
        grads = named_grads(model, fwd, dz)
        assert grads["start_bias"][-1] == 1.0

    def test_gradients_of_a_trimmed_batch(self):
        model, encoded, probes = operating_point(seed=11, max_len=32)
        n = encoded.end.max()
        assert n < model.config.max_len
        fwd = md.forward_batch(model, encoded)
        assert fwd.H.shape[1] == n
        grads = named_grads(model, fwd, probes)
        for name in ("start_bias", "end_bias"):
            assert grads[name].shape == (model.config.max_len,)
            np.testing.assert_array_equal(grads[name][n:], 0.0)
        TestBackwardPasses._check_probed_gradients(model, encoded, probes)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        samples = task_samples()
        model, vocab = small_model(samples)
        path = tmp_path / "model.ckpt"
        md.save_model(model, path)
        loaded = md.load_model(path)
        assert loaded.config == model.config
        assert loaded.vocab.tokens == vocab.tokens
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])
        enc = md.encode_dataset(samples[:1], vocab, model.config.max_len)[0]
        np.testing.assert_array_equal(md.forward_batch(model, enc).z,
                                      md.forward_batch(loaded, enc).z)

    @pytest.mark.parametrize("corrupt", [
        lambda blob: blob[:3],
        lambda blob: blob[:10],
        lambda blob: blob[:4] + b"\xff" + blob[5:],
        lambda blob: blob[:4] + b"[" + blob[5:],
        lambda blob: blob[:-1],
        lambda blob: blob[:-8],
        lambda blob: blob + b"\0",
        lambda blob: blob[:-8] + np.array([np.nan], dtype="<f8").tobytes(),
        lambda blob: blob[:-8] + np.array([np.inf], dtype="<f8").tobytes(),
    ], ids=["no_length", "cut_header", "not_utf8", "not_json", "cut_value", "cut_block",
            "trailing_byte", "nan_value", "inf_value"])
    def test_corrupt_checkpoint_is_invalid_config(self, tmp_path, corrupt):
        model, _ = small_model(task_samples())
        path = tmp_path / "model.ckpt"
        md.save_model(model, path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(InvalidConfig, match="is corrupt"):
            md.load_model(path)

    @staticmethod
    def _checkpoint_with_config(tmp_path, edit):
        """A saved checkpoint whose header's config ``edit`` has changed."""
        model, _ = small_model(task_samples())
        path = tmp_path / "model.ckpt"
        md.save_model(model, path)
        data = path.read_bytes()
        start = 4 + int.from_bytes(data[:4], "little")
        header = json.loads(data[4:start])
        edit(header["config"])
        path.write_bytes(md.pack_artifact(header, np.frombuffer(data, "<f8", offset=start)))
        return path

    def test_checkpoint_with_invalid_config_is_corrupt(self, tmp_path):
        path = self._checkpoint_with_config(tmp_path, lambda config: config.update(max_len=3))
        with pytest.raises(InvalidConfig, match=r"is corrupt: bad header field \(max_len"):
            md.load_model(path)

    @pytest.mark.parametrize("field, retype", [
        ("hidden", float), ("ffn", float), ("max_len", float), ("max_len", bool),
    ], ids=["hidden", "ffn", "max_len", "max_len_bool"])
    def test_checkpoint_with_a_non_integer_config_field_is_corrupt(self, tmp_path, field,
                                                                   retype):
        # 8.0 == 8, so the layout compare alone lets a float through; a JSON
        # boolean is no integer either
        path = self._checkpoint_with_config(
            tmp_path, lambda config: config.update({field: retype(config[field])}))
        with pytest.raises(InvalidConfig, match=rf"is corrupt: bad header field \({field} must "
                                                rf"be an integer, got (\d+\.0|True)\)"):
            md.load_model(path)

    def test_body_is_the_flat_vector(self, tmp_path):
        model, _ = small_model(task_samples())
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
