"""Bit-identity of the encoder passes and of encoding against out-of-place oracles.

The oracles below are the plain expressions ``model.py`` computes in place,
one head at a time: each of its passes, which take and give the (B, 2, L)
start/end block, must give the same bits, signed zeros included.
"""

import numpy as np
import pytest

from branchdistill import cli
from branchdistill import corpus as cp
from branchdistill import model as md

from _oracles import flat_gradient, vocabulary_from_samples, vocabulary_of_size


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def oracle_layer_norm(x, gain, offset, eps=1e-6):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    return xhat * gain + offset, (xhat, inv)


def oracle_layer_norm_backward(g, gain, cache):
    xhat, inv = cache
    gx = g * gain
    m1 = gx.mean(axis=-1, keepdims=True)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True)
    return inv * (gx - m1 - xhat * m2), (g * xhat).sum(0).sum(0), g.sum(0).sum(0)


def oracle_forward(model, encoded):
    cfg, p = model.config, model.params
    n = int(encoded.end.max())
    ids = encoded.ids[:, :n]
    passage = encoded.passage_mask()
    scale = 1.0 / np.sqrt(cfg.hidden)
    attn_bias = np.where(np.arange(n) < encoded.end[:, None], 0.0, md.MASKED_LOGIT)[:, None, :]
    x = p["embed"][ids] + model.pos_table[:n]
    q, k, v = x @ p["attn_wq"], x @ p["attn_wk"], x @ p["attn_wv"]
    scores = (q @ k.swapaxes(-1, -2)) * scale + attn_bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    mixed = attn @ v
    y, ln1 = oracle_layer_norm(x + mixed @ p["attn_wo"], p["ln1_gain"], p["ln1_offset"])
    pre = y @ p["ffn_w1"] + p["ffn_b1"]
    hidden = np.where(pre > 0.0, pre, 0.0)
    H, ln2 = oracle_layer_norm(y + (hidden @ p["ffn_w2"] + p["ffn_b2"]),
                               p["ln2_gain"], p["ln2_offset"])
    z = []
    for head in ("start", "end"):
        logits = np.full(passage.shape, md.MASKED_LOGIT)
        logits[:, :n] = np.where(passage[:, :n], (H @ p[f"{head}_vec"].reshape(-1, 1))[..., 0]
                                 + p[f"{head}_bias"][:n], md.MASKED_LOGIT)
        z.append(logits)
    return md.Forward(z=np.stack(z, axis=1), H=H, ids=ids, passage=passage,
                      activations=(x, q, k, v, attn, mixed, ln1, y, hidden, ln2))


def oracle_backward(model, cache, grad_z_s, grad_z_e):
    p = model.params
    scale = 1.0 / np.sqrt(model.config.hidden)
    grad = np.zeros_like(model.flat)
    grads = md.param_views(model.config, model.vocab.size, grad)
    n = cache.H.shape[1]
    dx = 0.0
    for head, grad_z in (("start", grad_z_s), ("end", grad_z_e)):
        g = np.asarray(grad_z, dtype=np.float64).reshape(cache.passage.shape) * cache.passage
        grads[f"{head}_bias"][...] = g.sum(axis=0)
        g = g[:, :n]
        grads[f"{head}_vec"][...] = (cache.H.swapaxes(-1, -2) @ g[..., None]).sum(axis=0)[:, 0]
        dx = dx + g[..., None] @ p[f"{head}_vec"].reshape(1, -1)
    x, q, k, v, attn, mixed, ln1, y, hidden, ln2 = cache.activations
    d_out, grads["ln2_gain"][...], grads["ln2_offset"][...] = (
        oracle_layer_norm_backward(dx, p["ln2_gain"], ln2))
    grads["ffn_b2"][...] = d_out.sum(0).sum(0)
    grads["ffn_w2"][...] = (hidden.swapaxes(-1, -2) @ d_out).sum(axis=0)
    d_pre = (d_out @ p["ffn_w2"].swapaxes(-1, -2)) * (hidden > 0.0)
    grads["ffn_b1"][...] = d_pre.sum(0).sum(0)
    grads["ffn_w1"][...] = (y.swapaxes(-1, -2) @ d_pre).sum(axis=0)
    dy = d_out + d_pre @ p["ffn_w1"].swapaxes(-1, -2)
    d_sum, grads["ln1_gain"][...], grads["ln1_offset"][...] = (
        oracle_layer_norm_backward(dy, p["ln1_gain"], ln1))
    grads["attn_wo"][...] = (mixed.swapaxes(-1, -2) @ d_sum).sum(axis=0)
    d_mixed = d_sum @ p["attn_wo"].swapaxes(-1, -2)
    d_attn = d_mixed @ v.swapaxes(-1, -2)
    d_v = attn.swapaxes(-1, -2) @ d_mixed
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * scale
    d_q = d_scores @ k
    d_k = (q.swapaxes(-1, -2) @ d_scores).swapaxes(-1, -2)
    xt = x.swapaxes(-1, -2)
    grads["attn_wq"][...] = (xt @ d_q).sum(axis=0)
    grads["attn_wk"][...] = (xt @ d_k).sum(axis=0)
    grads["attn_wv"][...] = (xt @ d_v).sum(axis=0)
    dx = d_sum + d_q @ p["attn_wq"].swapaxes(-1, -2)
    dx = dx + d_k @ p["attn_wk"].swapaxes(-1, -2)
    dx = dx + d_v @ p["attn_wv"].swapaxes(-1, -2)
    np.add.at(grads["embed"], cache.ids, dx)
    return grad


def random_batch(rng, batch, hidden, rows="ragged", max_len=24,
                 vocab_size=md.FIRST_TOKEN_ID + 40):
    """A model at a representative operating point (not the tiny init
    scale) and a batch of rows whose real lengths are ``rows``: mixed
    ("ragged"), all filling the window ("full"), or all two passage
    tokens long ("minimal")."""
    config = md.ModelConfig(hidden=hidden, ffn=2 * hidden, max_len=max_len)
    model = md.init_model(config, 0, vocabulary_of_size(vocab_size))
    model.flat[:] = rng.normal(scale=0.3, size=model.flat.size)
    offset = rng.integers(2, 6, size=batch)
    end = {"ragged": lambda: rng.integers(offset + 2, max_len + 1),
           "full": lambda: np.full(batch, max_len),
           "minimal": lambda: offset + 2}[rows]()
    ids = rng.integers(md.OOV_BASE_ID, vocab_size, size=(batch, max_len))
    ids[np.arange(max_len) >= end[:, None]] = md.PAD_ID
    return model, md.Encoded(ids, offset, end, np.stack([offset, offset + 1], axis=1))


def flatten(activations):
    for item in activations:
        yield from (item if isinstance(item, tuple) else (item,))


@pytest.mark.parametrize("hidden", [8, 32])
@pytest.mark.parametrize("batch", [1, 8, 32])
@pytest.mark.parametrize("rows", ["ragged", "full", "minimal"])
def test_passes_match_out_of_place_oracles(rows, batch, hidden):
    rng = np.random.default_rng(100 + batch + hidden)
    model, encoded = random_batch(rng, batch, hidden, rows)
    if rows == "full":
        assert (encoded.end == encoded.ids.shape[1]).all()
    elif rows == "minimal":
        assert (encoded.end - encoded.offset == 2).all()
    fwd = md.forward_batch(model, encoded)
    ref = oracle_forward(model, encoded)
    for name in ("z", "H", "ids", "passage"):
        assert_same_bits(getattr(fwd, name), getattr(ref, name))
    pairs = list(zip(flatten(fwd.activations), flatten(ref.activations), strict=True))
    assert len(pairs) == 12
    for a, b in pairs:
        assert_same_bits(a, b)
    np.testing.assert_array_equal(md.forward_logits(model, encoded), ref.z)

    g_s, g_e = rng.normal(size=fwd.passage.shape), rng.normal(size=fwd.passage.shape)
    g_s[:, ::3] = 0.0   # zero probes give signed zeros downstream
    for probes in ((g_s, g_e), (np.zeros_like(g_s), np.zeros_like(g_e))):
        assert_same_bits(flat_gradient(model, fwd, np.stack(probes, axis=1)),
                         oracle_backward(model, ref, *probes))


def test_layer_norm_pair_matches_oracles_and_keeps_its_input():
    rng = np.random.default_rng(2)
    x = rng.normal(loc=1.5, scale=3.0, size=(4, 7, 10))
    gain, offset, g = rng.normal(size=10), rng.normal(size=10), rng.normal(size=(4, 7, 10))
    before = x.copy()
    out, cache = md.layer_norm(x, gain, offset)
    ref_out, ref_cache = oracle_layer_norm(x, gain, offset)
    assert_same_bits(x, before)
    assert_same_bits(out, ref_out)
    for a, b in zip(cache, ref_cache):
        assert_same_bits(a, b)
    for a, b in zip(md.layer_norm_backward(g, gain, cache),
                    oracle_layer_norm_backward(g, gain, ref_cache)):
        assert_same_bits(a, b)


def test_reused_gradient_buffer_equals_a_fresh_backward():
    # every block but the embedding is overwritten whole; the embedding
    # block must be cleared, or the first batch's token rows would leak
    rng = np.random.default_rng(8)
    model, first = random_batch(rng, 4, 8)
    _, second = random_batch(rng, 4, 8)
    assert set(first.ids.ravel()) != set(second.ids.ravel())
    buffer = np.full_like(model.flat, 7.0)
    views = md.param_views(model.config, model.vocab.size, buffer)
    for encoded in (first, second):
        fwd = md.forward_batch(model, encoded)
        dz = np.stack([rng.normal(size=fwd.passage.shape) for _ in range(2)], axis=1)
        md.backward(model, fwd, dz, views)
        assert_same_bits(buffer, flat_gradient(model, fwd, dz))


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def oracle_encode_row(sample, vocab, max_len):
    """The packed row of one sample, by plain per-token lookups, or None
    when its question fills the window or its gold span ends past it."""
    q_ids = [vocab.token_id(t) for t in sample.question_tokens]
    p_ids = [vocab.token_id(t) for t in sample.passage_tokens]
    offset = len(q_ids) + 2
    if offset >= max_len:
        return None
    end = min(offset + len(p_ids), max_len)
    gold_end = sample.gold_end + offset
    if gold_end >= end:
        return None
    ids = np.full(max_len, md.PAD_ID, dtype=np.int64)
    ids[:end] = [md.START_ID, *q_ids, md.SEP_ID, *p_ids[: end - offset]]
    return ids, (offset, end, sample.gold_start + offset, gold_end)


@pytest.mark.parametrize("max_len", [8, 16, 64])
def test_encode_dataset_matches_per_sample_oracle(max_len):
    records = cp.generate_synthetic_corpus(30, ["en", "es"], cp.NoiseSpec(seed=4),
                                           cp.TaskSpec(seed=4))
    paired, _, _ = cp.pair(records, ["en", "es"])
    samples = cli.select_datasets("lbmrc", paired, ["en", "es"], 0)["union"]
    # tokens outside the first third of the samples hash into OOV buckets
    vocab = vocabulary_from_samples(samples[: len(samples) // 3])
    encoded, kept, skipped = md.encode_dataset(samples, vocab, max_len)

    rows, expected_kept, skips = [], [], 0
    for sample in samples:
        row = oracle_encode_row(sample, vocab, max_len)
        if row is None:
            skips += 1
            continue
        rows.append(row)
        expected_kept.append(sample)

    assert kept == expected_kept and skipped == skips
    assert_same_bits(encoded.ids, np.array([r[0] for r in rows]).reshape(-1, max_len))
    table = np.array([r[1] for r in rows], dtype=np.int64).reshape(-1, 4)
    assert_same_bits(encoded.offset, table[:, 0])
    assert_same_bits(encoded.end, table[:, 1])
    assert_same_bits(encoded.gold, table[:, 2:])
    # the corpus exercises what it should at each window
    truncated = sum(o + len(s.passage_tokens) > max_len for o, s in zip(encoded.offset, kept))
    oov = (encoded.ids >= md.OOV_BASE_ID) & (encoded.ids < md.FIRST_TOKEN_ID)
    assert oov.any()
    assert (skipped > 0 and truncated > 0) if max_len < 64 else skipped == 0


def test_encode_empty_dataset():
    encoded, kept, skipped = md.encode_dataset([], md.Vocabulary(["a"]), 8)
    assert (encoded.ids.shape, encoded.offset.shape, encoded.gold.shape, kept, skipped) == (
        (0, 8), (0,), (0, 2), [], 0)
