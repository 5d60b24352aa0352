"""Acceptance suite: one test per release criterion, each printing its own
pass/fail line. Numerical tolerances are fixed here and nowhere else."""

import argparse
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from branchdistill import cli
from branchdistill import corpus as cp
from branchdistill import distill as ds
from branchdistill import evaluation as ev
from branchdistill import model as md
from branchdistill import train as tr

from _gradcheck import central_difference, max_relative_error
from _oracles import flat_gradient, vocabulary_from_samples


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"[criterion {number:02d}] {name}: PASS")


def pipeline_config(out_dir, seed, **overrides):
    ns = argparse.Namespace(config=None, seed=seed, out_dir=str(out_dir))
    for key, value in overrides.items():
        setattr(ns, key, value)
    return cli.resolve_config(ns)


# ---------------------------------------------------------------------------
# 1. Gradient fidelity
# ---------------------------------------------------------------------------


def random_encoded_batch(rng, vocab_size, max_len, batch=4):
    offset = 3
    window = max_len - offset - 2
    ids = np.zeros((batch, max_len), dtype=np.int64)
    gold = np.zeros((batch, 2), dtype=np.int64)
    for row in range(batch):
        ids[row, 0] = 1
        ids[row, 1] = int(rng.integers(3, vocab_size))
        ids[row, 2] = 2
        ids[row, offset : offset + window] = rng.integers(3, vocab_size, size=window)
        gold_start = int(rng.integers(offset, offset + window))
        gold_end = int(rng.integers(gold_start, min(offset + window, gold_start + 3)))
        gold[row] = gold_start, gold_end
    return md.Encoded(ids, np.full(batch, offset), np.full(batch, offset + window), gold)


def test_c01_gradient_fidelity():
    with criterion(1, "analytic gradients match central finite differences"):
        start = time.monotonic()
        rng = np.random.default_rng(42)
        config = md.ModelConfig(hidden=8, ffn=16, max_len=16, layers=1)
        model = md.init_model(config, 0, md.Vocabulary(()))
        for p in model.params.values():
            p[:] = rng.normal(scale=0.5, size=p.shape)

        encoded = random_encoded_batch(rng, model.vocab.size, config.max_len)
        gold = encoded.gold
        passage = encoded.passage_mask()
        tau, lam1, lam2 = 2.0, 0.5, 0.5
        teacher_p = np.stack([
            ds.softmax_temperature(np.where(passage, rng.normal(size=passage.shape), -1e9), tau)
            for _ in range(2)], axis=1)

        def hard_label_loss():
            result = md.forward_batch(model, encoded)
            return ds.batch_nll(result.z, gold)[0]

        def combined_loss():
            result = md.forward_batch(model, encoded)
            nll = ds.batch_nll(result.z, gold)[0]
            kd = ds.batch_kd(result.z, teacher_p, tau)[0]
            return lam1 * nll + lam2 * kd

        result = md.forward_batch(model, encoded)
        _, dz = ds.batch_nll(result.z, gold)
        hard_grads = md.param_views(config, model.vocab.size, flat_gradient(model, result, dz))
        worst_hard = max_relative_error(hard_grads, central_difference(hard_label_loss, model.params))
        assert worst_hard <= 1e-3, worst_hard

        result = md.forward_batch(model, encoded)
        _, nll_dz = ds.batch_nll(result.z, gold)
        _, kd_dz = ds.batch_kd(result.z, teacher_p, tau)
        total_grads = md.param_views(config, model.vocab.size,
                                     flat_gradient(model, result, lam1 * nll_dz + lam2 * kd_dz))
        worst_total = max_relative_error(total_grads, central_difference(combined_loss, model.params))
        assert worst_total <= 1e-3, worst_total

        elapsed = time.monotonic() - start
        assert elapsed <= 60.0, f"gradient check took {elapsed:.1f}s"
        print(f"    hard-label max rel err {worst_hard:.2e}, "
              f"combined max rel err {worst_total:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Loss identities
# ---------------------------------------------------------------------------


def test_c02_loss_identities(tmp_path):
    with criterion(2, "distillation loss identities and hard-label reduction"):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z_s = rng.normal(scale=3.0, size=12)
            z_e = rng.normal(scale=3.0, size=12)
            tau = float(rng.uniform(0.5, 4.0))
            expected = tau * tau * (
                ds.entropy(ds.softmax_temperature(z_s, tau))
                + ds.entropy(ds.softmax_temperature(z_e, tau))
            )
            z = np.stack([z_s, z_e])[None]
            value, _ = ds.batch_kd(z, ds.softmax_temperature(z, tau), tau)
            assert abs(value - expected) <= 1e-9

        records = cp.generate_synthetic_corpus(
            100, ["en", "es"], cp.NoiseSpec(seed=5),
            cp.TaskSpec(seed=5, passage_min=5, passage_max=8, rare_vocab_size=100),
        )
        dataset = cp.build_translate_train(records, "en").samples
        assert len(dataset) == 100
        vocab = vocabulary_from_samples(dataset)
        config = md.ModelConfig(hidden=8, ffn=12, max_len=24)

        helper, _ = tr.train(dataset, vocab, config,
                             tr.TrainConfig(epochs=1, seed=1, lr=1e-3), "teacher")
        store_path = tmp_path / "en.logits"
        tr.dump_teacher_logits(helper, dataset, store_path, "en")
        stores = {"en": ds.LogitStore(store_path)}

        shared = tr.TrainConfig(epochs=2, seed=17, lr=1e-3)
        student, student_manifest = tr.train(
            dataset, vocab, config, shared, "student", stores=stores,
            distill=tr.DistillConfig(lambda1=1.0, lambda2=0.0),
        )
        plain, plain_manifest = tr.train(dataset, vocab, config, shared, "teacher")
        for name in student.params:
            assert np.array_equal(student.params[name], plain.params[name]), name
        assert [e["total"] for e in student_manifest.epoch_losses] == [
            e["total"] for e in plain_manifest.epoch_losses
        ]


# ---------------------------------------------------------------------------
# 3. Impurity weighting
# ---------------------------------------------------------------------------


def test_c03_impurity_weight_properties():
    with criterion(3, "impurity weights: simplex, uniformity, worked example"):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            length = int(rng.integers(2, 20))
            logits = [rng.normal(scale=rng.uniform(0.1, 10.0), size=length) for _ in range(k)]
            sign = 1 if rng.random() < 0.5 else -1
            w = ds.impurity_weights(logits, sign)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-9

        z = rng.normal(size=9)
        w = ds.impurity_weights([z, z.copy(), z.copy()], 1)
        assert w[0] == w[1] == w[2]

        z_half = np.array([0.0, 0.0, -1e9])   # entropy ln 2
        z_sharp = np.array([0.0, -1e9, -1e9])  # entropy 0
        np.testing.assert_allclose(ds.impurity_weights([z_half, z_sharp], 1), [2 / 3, 1 / 3], atol=1e-9)
        np.testing.assert_allclose(ds.impurity_weights([z_half, z_sharp], -1), [1 / 3, 2 / 3], atol=1e-9)


# ---------------------------------------------------------------------------
# 4. Logit aggregation
# ---------------------------------------------------------------------------


def test_c04_aggregation_properties():
    with criterion(4, "aggregation identity, symmetry, and linearity"):
        rng = np.random.default_rng(13)

        def rec(z):
            return np.stack([z, np.zeros_like(z)])

        for _ in range(1000):
            length = int(rng.integers(2, 16))
            z1 = rng.normal(scale=5.0, size=length)
            z2 = rng.normal(scale=5.0, size=length)
            alpha = float(rng.uniform(-2.0, 2.0))

            single = ds.aggregate_logits([rec(z1)], ds.fixed_weights(1))[0]
            assert np.max(np.abs(single - z1)) <= 1e-12

            ab = ds.aggregate_logits([rec(z1), rec(z2)], ds.fixed_weights(2))[0]
            ba = ds.aggregate_logits([rec(z2), rec(z1)], ds.fixed_weights(2))[0]
            assert np.max(np.abs(ab - ba)) <= 1e-12

            scaled = ds.aggregate_logits([rec(alpha * z1), rec(alpha * z2)], ds.fixed_weights(2))[0]
            assert np.max(np.abs(scaled - alpha * ab)) <= 1e-12


# ---------------------------------------------------------------------------
# 5. Span pipeline
# ---------------------------------------------------------------------------


def test_c05_span_pipeline():
    with criterion(5, "mark/recover round trip and binomial discard band"):
        rng = np.random.default_rng(19)
        alphabet = [f"t{i}" for i in range(40)]
        for _ in range(10_000):
            length = int(rng.integers(1, 20))
            tokens = [alphabet[i] for i in rng.integers(len(alphabet), size=length)]
            start = int(rng.integers(0, length))
            end = int(rng.integers(start, length))
            rendering = cp.Rendering(tuple(tokens), ("q",), (start, end))
            recovered, span = cp.recover_answer(cp.mark_answer(rendering))
            assert recovered == tokens
            assert span == (start, end)

        noise = cp.NoiseSpec(marker_destroy_prob=0.2, seed=31)
        records = cp.generate_synthetic_corpus(1000, ["en", "xx"], noise, cp.TaskSpec(seed=31))
        discarded = sum(1 for r in records if r.renderings["xx"].answer_span is None)
        assert 140 <= discarded <= 260, discarded
        print(f"    discarded renderings: {discarded} (band [140, 260])")


# ---------------------------------------------------------------------------
# 6. Decoding oracle
# ---------------------------------------------------------------------------


def exhaustive_pair_argmax(z_s, z_e, valid, max_answer_length):
    """Score every (s, e) pair as a matrix; row-major argmax realizes the
    smaller-start-then-smaller-end tie rule."""
    length = len(z_s)
    scores = z_s[:, None] + z_e[None, :]
    s_idx = np.arange(length)[:, None]
    e_idx = np.arange(length)[None, :]
    allowed = (
        valid[:, None] & valid[None, :]
        & (e_idx >= s_idx) & (e_idx < s_idx + max_answer_length)
    )
    scores = np.where(allowed, scores, -np.inf)
    flat = int(np.argmax(scores))
    assert np.isfinite(scores.ravel()[flat])
    return divmod(flat, length)


def test_c06_decoding_oracle():
    with criterion(6, "windowed span decoding equals exhaustive pair argmax"):
        rng = np.random.default_rng(23)
        for i in range(10_000):
            length = int(rng.integers(2, 33))
            if i % 3 == 0:
                z_s = rng.integers(-2, 3, size=length).astype(float)  # force ties
                z_e = rng.integers(-2, 3, size=length).astype(float)
            else:
                z_s = rng.normal(size=length)
                z_e = rng.normal(size=length)
            valid = rng.random(length) > 0.25
            if not valid.any():
                valid[int(rng.integers(length))] = True
            maxlen = int(rng.integers(1, length + 2))
            assert tuple(ev.decode_span(z_s, z_e, valid, maxlen)) == exhaustive_pair_argmax(
                z_s, z_e, valid, maxlen
            )


# ---------------------------------------------------------------------------
# 7. Metric oracle
# ---------------------------------------------------------------------------


def sorted_overlap(a, b):
    """Multiset intersection size via two sorted pointers."""
    a, b = sorted(a), sorted(b)
    i = j = count = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            count += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return count


def oracle_f1(pred, gold):
    if not pred and not gold:
        return 1.0
    if not pred or not gold:
        return 0.0
    overlap = sorted_overlap(pred, gold)
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(gold)
    return (2 * precision * recall) / (precision + recall)


def oracle_em(pred, gold):
    if len(pred) != len(gold):
        return 0
    for x, y in zip(pred, gold):
        if x != y:
            return 0
    return 1


def test_c07_metric_oracle():
    with criterion(7, "EM and F1 equal an independent overlap implementation"):
        rng = np.random.default_rng(29)
        alphabet = [f"t{i}" for i in range(8)]
        for _ in range(10_000):
            pred = [alphabet[i] for i in rng.integers(len(alphabet), size=int(rng.integers(0, 7)))]
            gold = [alphabet[i] for i in rng.integers(len(alphabet), size=int(rng.integers(0, 7)))]
            assert ev.exact_match(pred, gold) == oracle_em(pred, gold)
            assert ev.f1_score(pred, gold) == oracle_f1(pred, gold)


# ---------------------------------------------------------------------------
# 8. End-to-end regression
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c08_end_to_end_regression(tmp_path):
    with criterion(8, "teachers >= 0.9 EM, student >= 0.88, zero-shot >= 0.85"):
        start = time.monotonic()
        cfg = pipeline_config(tmp_path / "run", seed=7)
        reports = cli.run_pipeline(cfg, strategies=("imp",))

        for lang in cfg.languages:
            own = reports[f"teacher_{lang}"].cell(lang, lang).em
            print(f"    teacher {lang}: own-language EM {own:.3f}")
            assert own >= 0.9, f"teacher {lang} EM {own}"

        student = reports["student_imp"]
        print(f"    student (impurity, tau=2): union EM {student.overall_em:.3f}")
        assert student.overall_em >= 0.88, student.overall_em

        zero_shot = reports[f"student_imp_zero_shot_{cfg.zero_shot_language}"]
        print(f"    student zero-shot ({cfg.zero_shot_language}): EM {zero_shot.overall_em:.3f}")
        assert zero_shot.overall_em >= 0.85, zero_shot.overall_em

        elapsed = time.monotonic() - start
        print(f"    pipeline wall time {elapsed:.0f}s")
        assert elapsed <= 900.0

        # training-loss smoke: final epoch strictly below the first
        manifest = tr.RunManifest(
            **json.loads((cfg.student_dir("student_imp") / "manifest.json").read_text()))
        assert manifest.epoch_losses[-1]["total"] < manifest.epoch_losses[0]["total"]


# ---------------------------------------------------------------------------
# 9. Noise-robustness direction
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c09_noise_robustness_direction(tmp_path):
    with criterion(9, "noisy-data student beats translate-train on macro-EM"):
        cfg = pipeline_config(
            tmp_path, seed=0,
            **{
                "corpus.records": "300",
                "noise.token_drop_prob": "0.1",
                "noise.token_swap_prob": "0.1",
                "noise.marker_destroy_prob": "0.1",
            },
        )
        seeds = (11, 12, 13)
        pairs = cli.noise_study(cfg, seeds)
        for seed, (student, baseline) in zip(seeds, pairs):
            print(f"    seed {seed}: student macro-EM {student:.3f}, "
                  f"translate-train macro-EM {baseline:.3f}")
        student_mean, baseline_mean = np.mean(pairs, axis=0)
        print(f"    mean over 3 seeds: student {student_mean:.3f} vs baseline {baseline_mean:.3f}")
        assert student_mean >= baseline_mean


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------


def run_all_stages(out_dir):
    flags = [
        "--seed", "5", "--out-dir", str(out_dir),
        "--corpus.records", "40", "--corpus.passage_min", "5", "--corpus.passage_max", "8",
        "--model.hidden", "8", "--model.ffn", "12", "--model.max_len", "32",
        "--train.epochs", "2", "--train.lr", "0.002",
    ]
    assert cli.main(["generate"] + flags) == 0
    assert cli.main(["build"] + flags) == 0
    for lang in ("en", "es", "de"):
        assert cli.main(["train-teacher", "--branch", lang] + flags) == 0
        assert cli.main(["dump-logits", "--teacher", lang] + flags) == 0
    assert cli.main(["distill", "--train.strategy", "impurity"] + flags) == 0
    assert cli.main([
        "evaluate",
        "--model", str(out_dir / "students" / "student_imp" / "final.ckpt"),
        "--report", str(out_dir / "reports" / "student_imp.json"),
    ] + flags) == 0


def tree_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_c10_determinism(tmp_path):
    with criterion(10, "every stage rerun is byte-identical"):
        run_all_stages(tmp_path / "a")
        run_all_stages(tmp_path / "b")
        a = tree_bytes(tmp_path / "a")
        b = tree_bytes(tmp_path / "b")
        assert a.keys() == b.keys()
        different = [name for name in a if a[name] != b[name]]
        assert not different, f"artifacts differ: {different}"
        # each run keeps one checkpoint, final.ckpt
        assert not list((tmp_path / "a").rglob("epoch_*.ckpt"))
        print(f"    {len(a)} artifacts byte-identical")
