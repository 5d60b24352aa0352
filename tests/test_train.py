import dataclasses
import json

import numpy as np
import pytest

from branchdistill import corpus as cp
from branchdistill import distill as ds
from branchdistill import model as md
from branchdistill import train as tr
from branchdistill.errors import InvalidConfig

from _oracles import vocabulary_from_samples


def small_task(n_records=12, seed=0, langs=("en", "es")):
    records = cp.generate_synthetic_corpus(
        n_records, list(langs), cp.NoiseSpec(seed=seed),
        cp.TaskSpec(seed=seed, passage_min=5, passage_max=8, rare_vocab_size=50),
    )
    result = cp.build_language_branches(records, list(langs))
    union = cp.union_of_branches(result.branches)
    vocab = vocabulary_from_samples(union)
    config = md.ModelConfig(hidden=8, ffn=12, max_len=24)
    return result, union, vocab, config


class TestAdamW:
    def test_null_update(self):
        theta = np.array([1.0, -2.0, 3.0])
        opt = tr.AdamW(3, lr=0.1, weight_decay=0.0)
        opt.step(theta, np.zeros(3))
        np.testing.assert_array_equal(theta, [1.0, -2.0, 3.0])

    def test_decoupled_decay_hand_evaluation(self):
        # theta = 1, g = 0, wd = 0.005, lr = 0.1 -> theta = 1 - 0.1 * 0.005
        theta = np.array([1.0])
        opt = tr.AdamW(1, lr=0.1, weight_decay=0.005)
        opt.step(theta, np.zeros(1))
        np.testing.assert_allclose(theta, [0.9995], atol=1e-15)

    def test_constant_gradient_update_approaches_lr(self):
        theta = np.array([0.0])
        lr = 0.001
        opt = tr.AdamW(1, lr=lr, weight_decay=0.0)
        previous = theta.copy()
        for _ in range(2000):
            previous = theta.copy()
            opt.step(theta, np.ones(1))
        assert abs(abs(theta[0] - previous[0]) - lr) <= 0.02 * lr

    def test_update_is_bitwise_the_documented_expression(self):
        rng = np.random.default_rng(3)
        b1, b2, lr, eps, wd = 0.9, 0.999, 5e-3, 1e-8, 0.005
        theta = rng.normal(size=500)
        expected, m, v = theta.copy(), np.zeros(500), np.zeros(500)
        opt = tr.AdamW(500, lr=lr, weight_decay=wd)
        for t in range(1, 6):
            g = rng.normal(size=500) * 10.0 ** rng.integers(-8, 3, size=500)
            opt.step(theta, g)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            expected -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * expected)
            np.testing.assert_array_equal(theta, expected)

    def test_clip_gradients(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = tr.clip_gradients(grads, 1.0)
        assert abs(norm - 5.0) <= 1e-12
        np.testing.assert_allclose(grads["a"], [0.6], atol=1e-12)
        np.testing.assert_allclose(grads["b"], [0.8], atol=1e-12)
        untouched = {"a": np.array([0.3])}
        tr.clip_gradients(untouched, 1.0)
        np.testing.assert_array_equal(untouched["a"], [0.3])


class TestFlatParameters:
    @pytest.mark.parametrize("source", ["init", "load", "train"])
    def test_views_write_through_to_flat_and_checkpoint(self, tmp_path, source):
        result, _, vocab, config = small_task()
        if source == "train":
            model, _ = tr.train(result.branches["en"], vocab, config,
                                tr.TrainConfig(epochs=1, seed=3, lr=1e-3), "teacher")
        else:
            model = md.init_model(config, 3, vocab)
        if source == "load":
            md.save_model(model, tmp_path / "saved.ckpt")
            model = md.load_model(tmp_path / "saved.ckpt")
        assert list(model.params) == [name for name, _ in md.parameter_layout(config, vocab.size)]
        for name, view in model.params.items():
            assert np.shares_memory(view, model.flat), name
        model.params["end_bias"][2] = 7.5
        model.params["embed"][md.FIRST_TOKEN_ID] = -1.25
        at = model.flat.size - config.max_len + 2
        assert model.flat[at] == 7.5
        row = md.FIRST_TOKEN_ID * config.hidden
        np.testing.assert_array_equal(model.flat[row : row + config.hidden], -1.25)
        md.save_model(model, tmp_path / "written.ckpt")
        loaded = md.load_model(tmp_path / "written.ckpt")
        np.testing.assert_array_equal(loaded.flat, model.flat)
        assert loaded.params["end_bias"][2] == 7.5


class TestLearningRate:
    LR = 5e-3

    def test_first_step_gets_one_warmup_share(self):
        # T = 100 -> W = 10
        assert tr.learning_rate(0, 100, self.LR) == pytest.approx(self.LR / 10, rel=1e-15)

    def test_peak_at_last_warmup_step(self):
        rates = [tr.learning_rate(k, 100, self.LR) for k in range(100)]
        # warmup ends at lr on step W - 1; decay starts from lr * (T - W) / (T - W)
        assert rates[9] == pytest.approx(self.LR, rel=1e-15)
        assert rates[10] == pytest.approx(self.LR, rel=1e-15)
        assert max(rates) == pytest.approx(self.LR, rel=1e-15)
        assert all(a < b for a, b in zip(rates[:9], rates[1:10]))
        assert all(a > b for a, b in zip(rates[10:], rates[11:]))

    def test_last_step_gets_one_decay_share(self):
        assert tr.learning_rate(99, 100, self.LR) == pytest.approx(self.LR / 90, rel=1e-15)

    def test_short_run_has_no_warmup(self):
        # T < 1 / WARMUP_FRACTION -> W = 0: pure decay, no division by zero
        rates = [tr.learning_rate(k, 6, self.LR) for k in range(6)]
        assert rates[0] == self.LR
        assert rates == pytest.approx([self.LR * (6 - k) / 6 for k in range(6)], rel=1e-15)
        assert tr.learning_rate(0, 1, self.LR) == self.LR

    def test_zero_base_rate_stays_zero(self):
        assert all(tr.learning_rate(k, 50, 0.0) == 0.0 for k in range(50))


class TestTrainTeacher:
    def test_two_runs_are_bit_identical(self, tmp_path):
        result, _, vocab, config = small_task()
        cfg = tr.TrainConfig(epochs=2, seed=5, lr=1e-3)
        model_a, manifest_a = tr.train(
            result.branches["en"], vocab, config, cfg, "teacher", out_dir=tmp_path / "a"
        )
        model_b, manifest_b = tr.train(
            result.branches["en"], vocab, config, cfg, "teacher", out_dir=tmp_path / "b"
        )
        for name in model_a.params:
            np.testing.assert_array_equal(model_a.params[name], model_b.params[name])
        assert manifest_a.epoch_losses == manifest_b.epoch_losses
        assert (tmp_path / "a" / "final.ckpt").read_bytes() == (
            tmp_path / "b" / "final.ckpt"
        ).read_bytes()

    def test_zero_learning_rate_freezes_the_model(self):
        result, _, vocab, config = small_task()
        cfg = tr.TrainConfig(epochs=3, seed=1, lr=0.0)
        _, manifest = tr.train(result.branches["en"], vocab, config, cfg, "teacher")
        losses = [e["total"] for e in manifest.epoch_losses]
        assert abs(losses[-1] - losses[0]) <= 1e-12

    @pytest.mark.parametrize("clip_norm", [5.0, 0.0])
    def test_non_finite_step_stops_the_run(self, monkeypatch, clip_norm):
        # a peak rate of 1e200 overflows the forward pass within two epochs;
        # without clipping the gradient norm is still measured and checked
        stepped = []
        original_step = tr.AdamW.step

        def checked_step(self, theta, grad):
            stepped.append(np.isfinite(grad).all())
            original_step(self, theta, grad)

        monkeypatch.setattr(tr.AdamW, "step", checked_step)
        result, _, vocab, config = small_task()
        cfg = tr.TrainConfig(epochs=2, seed=0, lr=1e200, clip_norm=clip_norm)
        with np.errstate(all="ignore"), pytest.raises(
            InvalidConfig, match=r"run 'diverging'.* epoch \d+, step \d+ of \d+"
        ):
            tr.train(result.branches["en"], vocab, config, cfg, "diverging")
        assert stepped and all(stepped)

    @pytest.mark.parametrize("clip_norm", [0.05, 0.0])
    def test_manifest_records_gradient_health(self, monkeypatch, tmp_path, clip_norm):
        norms = []
        original_clip = tr.clip_gradients

        def observed_clip(grads, max_norm):
            norms.append(original_clip(grads, max_norm))
            return norms[-1]

        monkeypatch.setattr(tr, "clip_gradients", observed_clip)
        result, _, vocab, config = small_task()
        cfg = tr.TrainConfig(epochs=2, seed=4, lr=1e-3, clip_norm=clip_norm)
        _, manifest = tr.train(result.branches["en"], vocab, config, cfg, "teacher",
                               out_dir=tmp_path)
        steps = len(norms) // cfg.epochs
        assert steps * cfg.epochs == len(norms)
        for epoch, entry in enumerate(manifest.epoch_losses):
            epoch_norms = norms[epoch * steps : (epoch + 1) * steps]
            assert entry["grad_norm_max"] == max(epoch_norms) > 0.0
            clipped = sum(norm > clip_norm for norm in epoch_norms) if clip_norm else 0
            assert entry["clip_count"] == clipped
        if clip_norm:
            assert sum(e["clip_count"] for e in manifest.epoch_losses) > 0
        saved = tr.RunManifest(**json.loads((tmp_path / "manifest.json").read_text()))
        assert saved.epoch_losses == manifest.epoch_losses

    def test_loss_decreases_over_ten_epochs(self):
        result, _, vocab, config = small_task(n_records=30)
        cfg = tr.TrainConfig(epochs=10, seed=2, lr=5e-3)
        _, manifest = tr.train(result.branches["en"], vocab, config, cfg, "teacher")
        assert manifest.epoch_losses[-1]["total"] < manifest.epoch_losses[0]["total"]

    def test_empty_dataset_rejected(self):
        _, _, vocab, config = small_task()
        with pytest.raises(InvalidConfig):
            tr.train([], vocab, config, tr.TrainConfig(), "teacher")

    @pytest.mark.parametrize("weights", [{"lambda1": -0.1}, {"lambda2": -0.1}])
    def test_negative_loss_weights_rejected(self, weights):
        with pytest.raises(InvalidConfig, match="loss weights must be non-negative"):
            tr.DistillConfig(**weights)

    def test_run_directory_holds_one_checkpoint(self, tmp_path):
        result, _, vocab, config = small_task()
        cfg = tr.TrainConfig(epochs=3, seed=0, lr=1e-3)
        tr.train(result.branches["en"], vocab, config, cfg, "teacher", out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["final.ckpt", "manifest.json"]
        saved = json.loads((tmp_path / "manifest.json").read_text())
        assert saved["format_version"] == tr.MANIFEST_VERSION == 4
        assert not {"checkpoints", "final_checkpoint"} & set(saved)
        # a teacher's manifest records no distillation setting
        assert saved["distill_config"] is None and saved["teacher_store_digests"] == {}
        assert set(saved["train_config"]) == {f.name for f in dataclasses.fields(tr.TrainConfig)}


class TestDumpLogits:
    def test_record_count_and_round_trip(self, tmp_path):
        result, union, vocab, config = small_task()
        cfg = tr.TrainConfig(epochs=1, seed=3, lr=1e-3)
        model, _ = tr.train(result.branches["en"], vocab, config, cfg, "teacher")
        path = tmp_path / "en.logits"
        written, skipped = tr.dump_teacher_logits(model, union, path, "en")
        assert written == len(union) - skipped
        store = ds.LogitStore(path)
        assert store.count == written
        sample = union[0]
        enc = md.encode_dataset([sample], vocab, config.max_len)[0]
        result = md.forward_batch(model, enc)
        stored = store.get(sample.key())
        np.testing.assert_array_equal(stored.z_s, result.z[0, 0])
        np.testing.assert_array_equal(stored.z_e, result.z[0, 1])

    def test_union_of_three_noiseless_branches(self, tmp_path):
        records = cp.generate_synthetic_corpus(
            10, ["en", "es", "de"], cp.NoiseSpec(seed=1),
            cp.TaskSpec(seed=1, passage_min=5, passage_max=8, rare_vocab_size=50),
        )
        branches = cp.build_language_branches(records, ["en", "es", "de"]).branches
        union = cp.union_of_branches(branches)
        assert len(union) == 90
        vocab = vocabulary_from_samples(union)
        config = md.ModelConfig(hidden=8, ffn=12, max_len=24)
        model = md.init_model(config, 0, vocab)
        written, skipped = tr.dump_teacher_logits(model, union, tmp_path / "s.logits", "en")
        assert written == 90 and skipped == 0
        assert len(ds.LogitStore(tmp_path / "s.logits").sample_ids()) == 90


class _Keyed:
    def __init__(self, key):
        self._key = key

    def key(self):
        return self._key


class TestTargetTables:
    """The run's target block equals, bit for bit, targets built one row at a
    time and targets built one head at a time."""

    @staticmethod
    def _stores(tmp_path, langs, n, max_len, masked=False):
        rng = np.random.default_rng(len(langs) * 100 + max_len)
        stores = {}
        for lang in langs:
            path = tmp_path / f"{lang}.logits"
            logits = rng.normal(scale=4.0, size=(n, 2, max_len))
            if masked:
                # each row's passage window, as the encoder masks it
                offset = rng.integers(1, max_len // 2, size=n)
                end = rng.integers(offset + 1, max_len + 1)
                positions = np.arange(max_len)
                outside = (positions < offset[:, None]) | (positions >= end[:, None])
                logits = np.where(outside[:, None], md.MASKED_LOGIT, logits)
            ds.write_logit_store(path, lang, [f"s{i}" for i in range(n)], logits)
            stores[lang] = ds.LogitStore(path)
        return stores

    @staticmethod
    def _reference_row(stores, key, cfg):
        records = [stores[tid].get(key) for tid in sorted(stores)]
        if cfg.strategy == "fixed":
            weights = ds.fixed_weights(len(records))
        else:
            weights = np.stack([
                ds.impurity_weights([r.z_s for r in records], cfg.impurity_sign),
                ds.impurity_weights([r.z_e for r in records], cfg.impurity_sign),
            ])
        z = ds.aggregate_logits([np.stack([r.z_s, r.z_e]) for r in records], weights)
        return ds.softmax_temperature(z, cfg.tau)

    @staticmethod
    def _per_head_oracle(samples, stores, cfg):
        """The targets as separate start and end tables, each weighted,
        aggregated and softened on its own."""
        keys = [s.key() for s in samples]
        blocks = [stores[tid].take(keys) for tid in sorted(stores)]
        tables = []
        for head in range(2):
            per_teacher = [np.ascontiguousarray(b[:, head]) for b in blocks]
            if cfg.strategy == "fixed":
                weights = np.full(len(per_teacher), 1.0 / len(per_teacher))
            else:
                weights = ds.impurity_weights(per_teacher, cfg.impurity_sign)
            z = np.zeros(per_teacher[0].shape)
            for k, table in enumerate(per_teacher):
                z += weights[..., k, None] * table
            tables.append(ds.softmax_temperature(z, cfg.tau))
        return np.stack(tables, axis=1)

    @pytest.mark.parametrize("teacher_ids", [("en",), ("en", "es"), ("de", "en", "es")])
    @pytest.mark.parametrize("strategy,sign", [("fixed", 1), ("impurity", 1), ("impurity", -1)])
    def test_block_bits_equal_per_head_oracle(self, tmp_path, teacher_ids, strategy, sign):
        stores = self._stores(tmp_path, teacher_ids, 40, 24, masked=True)
        cfg = tr.DistillConfig(tau=1.7, strategy=strategy, impurity_sign=sign)
        samples = [_Keyed(f"s{i}") for i in np.random.default_rng(2).permutation(40)]
        block = tr._target_tables(samples, stores, cfg)
        expected = self._per_head_oracle(samples, stores, cfg)
        assert block.shape == expected.shape == (40, 2, 24)
        assert block.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("teacher_ids", [("en",), ("de", "es"), ("en", "es"),
                                             ("de", "en", "es")])
    @pytest.mark.parametrize("strategy,sign", [("fixed", 1), ("impurity", 1), ("impurity", -1)])
    @pytest.mark.parametrize("max_len", [7, 150])
    def test_bit_identical_to_per_row_reference(self, tmp_path, teacher_ids, strategy, sign,
                                               max_len):
        stores = self._stores(tmp_path, teacher_ids, 30, max_len)
        cfg = tr.DistillConfig(tau=1.7, strategy=strategy, impurity_sign=sign)
        keys = [f"s{i}" for i in np.random.default_rng(1).permutation(30)]
        p = tr._target_tables([_Keyed(k) for k in keys], stores, cfg)
        assert p.shape == (30, 2, max_len)
        for row, key in enumerate(keys):
            np.testing.assert_array_equal(p[row], self._reference_row(stores, key, cfg))


class TestDistillStudent:
    def _stores(self, tmp_path, result, union, vocab, config, langs=("en", "es")):
        stores = {}
        for lang in langs:
            cfg = tr.TrainConfig(epochs=1, seed=4, lr=1e-3)
            model, _ = tr.train(result.branches[lang], vocab, config, cfg, "teacher")
            path = tmp_path / f"{lang}.logits"
            tr.dump_teacher_logits(model, union, path, lang)
            stores[lang] = ds.LogitStore(path)
        return stores

    def test_hard_label_only_matches_teacher_training_bitwise(self, tmp_path):
        result, union, vocab, config = small_task()
        stores = self._stores(tmp_path, result, union, vocab, config)
        cfg = tr.TrainConfig(epochs=2, seed=9, lr=1e-3)
        student, student_manifest = tr.train(union, vocab, config, cfg, "student", stores=stores,
                                             distill=tr.DistillConfig(lambda1=1.0, lambda2=0.0))
        teacher, teacher_manifest = tr.train(union, vocab, config, cfg, "teacher")
        for name in student.params:
            np.testing.assert_array_equal(student.params[name], teacher.params[name])
        assert [e["total"] for e in student_manifest.epoch_losses] == [
            e["total"] for e in teacher_manifest.epoch_losses
        ]

    def test_missing_teacher_logits(self, tmp_path):
        result, union, vocab, config = small_task()
        stores = self._stores(tmp_path, result, union, vocab, config)
        path = tmp_path / "partial.logits"
        keys = [s.key() for s in union[:5]]
        ds.write_logit_store(path, "en", keys, stores["en"].take(keys))
        stores["en"] = ds.LogitStore(path)
        with pytest.raises(InvalidConfig, match=r"samples lack teacher logits \(first: .* "
                                                r"from teacher 'en'\)"):
            tr.train(union, vocab, config, tr.TrainConfig(epochs=1), "student", stores=stores,
                     distill=tr.DistillConfig())

    def test_store_length_mismatch(self, tmp_path):
        result, union, vocab, config = small_task()
        stores = self._stores(tmp_path, result, union, vocab, config)
        other = md.ModelConfig(hidden=8, ffn=12, max_len=32)
        with pytest.raises(InvalidConfig, match="has max_len"):
            tr.train(union, vocab, other, tr.TrainConfig(epochs=1), "student", stores=stores,
                     distill=tr.DistillConfig())

    def test_single_teacher_distillation_runs(self, tmp_path):
        result, union, vocab, config = small_task()
        stores = self._stores(tmp_path, result, union, vocab, config, langs=("en",))
        cfg = tr.TrainConfig(epochs=1, seed=2, lr=1e-3)
        _, manifest = tr.train(union, vocab, config, cfg, "student", stores=stores,
                               distill=tr.DistillConfig(strategy="impurity"))
        assert manifest.epoch_losses[0]["kd"] > 0.0
        assert manifest.teacher_store_digests.keys() == {"en"}
        assert manifest.distill_config["strategy"] == "impurity"

    def test_run_reads_no_store_after_opening(self, tmp_path):
        result, union, vocab, config = small_task()
        stores = self._stores(tmp_path, result, union, vocab, config)
        cfg = tr.TrainConfig(epochs=2, seed=2, lr=1e-3)
        distill = tr.DistillConfig(strategy="impurity")
        _, present = tr.train(union, vocab, config, cfg, "student", stores=stores,
                              distill=distill, out_dir=tmp_path / "present")
        assert present.teacher_store_digests == {
            lang: cp.sha256_file(store.path) for lang, store in stores.items()
        }
        reopened = {lang: ds.LogitStore(store.path) for lang, store in stores.items()}
        for store in reopened.values():
            store.path.unlink()
        _, deleted = tr.train(union, vocab, config, cfg, "student", stores=reopened,
                              distill=distill, out_dir=tmp_path / "deleted")
        assert ((tmp_path / "deleted" / "final.ckpt").read_bytes()
                == (tmp_path / "present" / "final.ckpt").read_bytes())
        assert deleted.teacher_store_digests == present.teacher_store_digests

    def test_manifest_records_digests(self, tmp_path):
        result, union, vocab, config = small_task()
        stores = self._stores(tmp_path, result, union, vocab, config)
        cfg = tr.TrainConfig(epochs=1, seed=2, lr=1e-3)
        _, manifest = tr.train(
            union, vocab, config, cfg, "student", out_dir=tmp_path / "run", stores=stores,
            distill=tr.DistillConfig(), dataset_digest="d" * 64, vocab_digest="v" * 64,
        )
        loaded = tr.RunManifest(**json.loads((tmp_path / "run" / "manifest.json").read_text()))
        assert loaded.dataset_digest == "d" * 64
        assert loaded.vocab_digest == "v" * 64
        assert set(loaded.teacher_store_digests) == {"en", "es"}
        assert loaded.distill_config == dataclasses.asdict(tr.DistillConfig())
