"""Compact trainable span-extraction model.

The encoder embeds the packed (question, passage) input, adds a fixed
sinusoidal positional table, and runs ``layers`` blocks of single-head
scaled dot-product self-attention and a position-wise feed-forward network,
each with residual connection and post layer norm. Two linear heads project
the contextual representation to per-position start/end logits; each head
adds a trainable per-position bias vector of length ``max_len``. Positions
outside the passage window (start token, question, separator, padding) are
forced to a large negative logit so they carry ~zero probability.

``forward_batch`` keeps the activations of every block, and ``backward``
runs the written-out reverse pass of that one architecture, returning the
gradient of every trainable parameter. Checkpoints are a JSON header
followed by little-endian float64 parameter blocks in declared order, and
round-trip bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .corpus import RESERVED_TOKENS, Sample
from .errors import InvalidConfig, ShapeError, SpanOutOfWindow, StateError

MASKED_LOGIT = -1e9

PAD_ID = 0
START_ID = 1
SEP_ID = 2
OOV_BASE_ID = 3
OOV_BUCKETS = 100
FIRST_TOKEN_ID = OOV_BASE_ID + OOV_BUCKETS

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden: int = 32
    ffn: int = 64
    max_len: int = 64
    layers: int = 1

    def validate(self) -> None:
        if self.vocab_size < 2:
            raise InvalidConfig(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.hidden < 2 or self.hidden % 2 != 0:
            raise InvalidConfig("hidden size must be an even number >= 2")
        if self.ffn < 1 or self.max_len < 4 or self.layers < 0:
            raise InvalidConfig("bad model dimensions")


class Vocabulary:
    """Token-to-id map with deterministic hash buckets for unseen tokens."""

    def __init__(self, tokens):
        self.tokens = sorted(set(tokens))
        for token in self.tokens:
            if token in RESERVED_TOKENS:
                raise InvalidConfig(f"reserved marker {token!r} cannot enter the vocabulary")
        self._index = {t: FIRST_TOKEN_ID + i for i, t in enumerate(self.tokens)}

    @classmethod
    def from_samples(cls, samples) -> "Vocabulary":
        tokens: set[str] = set()
        for s in samples:
            tokens.update(s.question_tokens)
            tokens.update(s.passage_tokens)
        return cls(tokens)

    @property
    def size(self) -> int:
        return FIRST_TOKEN_ID + len(self.tokens)

    def token_id(self, token: str) -> int:
        known = self._index.get(token)
        if known is not None:
            return known
        bucket = int(hashlib.sha1(token.encode("utf-8")).hexdigest(), 16) % OOV_BUCKETS
        return OOV_BASE_ID + bucket

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps({"oov_buckets": OOV_BUCKETS, "tokens": self.tokens},
                       sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path) -> "Vocabulary":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if raw.get("oov_buckets") != OOV_BUCKETS:
            raise InvalidConfig("vocabulary file uses an incompatible bucket count")
        return cls(raw["tokens"])


@dataclass
class EncodedInput:
    """Packed model input: [START] question [SEP] passage, padded to max_len."""

    token_ids: np.ndarray          # (max_len,) int64
    separator_position: int
    passage_offset: int
    attention_mask: np.ndarray     # (max_len,) bool, True at real tokens
    passage_mask: np.ndarray       # (max_len,) bool, True at passage positions
    passage_window: int            # passage tokens that fit in the window
    gold_start: int                # gold span in packed coordinates
    gold_end: int


def tokenize_and_index(sample: Sample, vocab: Vocabulary, max_len: int) -> EncodedInput:
    """Pack a sample into model coordinates; raises SpanOutOfWindow when the
    gold span does not survive truncation."""
    q_ids = [vocab.token_id(t) for t in sample.question_tokens]
    p_ids = [vocab.token_id(t) for t in sample.passage_tokens]

    separator_position = 1 + len(q_ids)
    passage_offset = separator_position + 1
    if passage_offset >= max_len:
        raise SpanOutOfWindow(
            f"sample {sample.id}: question fills the whole window of {max_len}"
        )
    window = min(len(p_ids), max_len - passage_offset)
    gold_start = sample.gold_start + passage_offset
    gold_end = sample.gold_end + passage_offset
    if gold_end >= passage_offset + window:
        raise SpanOutOfWindow(
            f"sample {sample.id}: gold span ends at {gold_end}, window ends at "
            f"{passage_offset + window}"
        )

    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    ids[0] = START_ID
    ids[1:separator_position] = q_ids
    ids[separator_position] = SEP_ID
    ids[passage_offset : passage_offset + window] = p_ids[:window]

    attention_mask = np.zeros(max_len, dtype=bool)
    attention_mask[: passage_offset + window] = True
    passage_mask = np.zeros(max_len, dtype=bool)
    passage_mask[passage_offset : passage_offset + window] = True

    return EncodedInput(
        token_ids=ids,
        separator_position=separator_position,
        passage_offset=passage_offset,
        attention_mask=attention_mask,
        passage_mask=passage_mask,
        passage_window=window,
        gold_start=gold_start,
        gold_end=gold_end,
    )


def encode_dataset(samples, vocab: Vocabulary, max_len: int):
    """Encode every sample, dropping and counting the out-of-window ones."""
    encoded: list[EncodedInput] = []
    kept: list[Sample] = []
    skipped = 0
    for sample in samples:
        try:
            encoded.append(tokenize_and_index(sample, vocab, max_len))
            kept.append(sample)
        except SpanOutOfWindow:
            skipped += 1
    return encoded, kept, skipped


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def parameter_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Declared parameter order; init, serialization, and the optimizer all
    iterate in exactly this order."""
    v, h, f, L = config.vocab_size, config.hidden, config.ffn, config.max_len
    layout: list[tuple[str, tuple[int, ...]]] = [("embed", (v, h))]
    for i in range(config.layers):
        prefix = f"layer{i}."
        layout += [
            (prefix + "attn_wq", (h, h)),
            (prefix + "attn_wk", (h, h)),
            (prefix + "attn_wv", (h, h)),
            (prefix + "attn_wo", (h, h)),
            (prefix + "ln1_gain", (h,)),
            (prefix + "ln1_offset", (h,)),
            (prefix + "ffn_w1", (h, f)),
            (prefix + "ffn_b1", (f,)),
            (prefix + "ffn_w2", (f, h)),
            (prefix + "ffn_b2", (h,)),
            (prefix + "ln2_gain", (h,)),
            (prefix + "ln2_offset", (h,)),
        ]
    layout += [
        ("start_vec", (h,)),
        ("start_bias", (L,)),
        ("end_vec", (h,)),
        ("end_bias", (L,)),
    ]
    return layout


def positional_table(max_len: int, hidden: int) -> np.ndarray:
    """Fixed interleaved sin/cos table; row p is [sin(p w0), cos(p w0), ...]."""
    positions = np.arange(max_len, dtype=np.float64)[:, None]
    freqs = np.exp(-np.log(10000.0) * np.arange(0, hidden, 2, dtype=np.float64) / hidden)
    table = np.zeros((max_len, hidden), dtype=np.float64)
    table[:, 0::2] = np.sin(positions * freqs)
    table[:, 1::2] = np.cos(positions * freqs)
    return table


@dataclass
class SpanModel:
    config: ModelConfig
    seed: int
    params: dict[str, np.ndarray]

    def __post_init__(self):
        self.pos_table = positional_table(self.config.max_len, self.config.hidden)


def init_model(config: ModelConfig, seed: int) -> SpanModel:
    """All trainable weights drawn from N(0, 0.01^2) with a seeded generator."""
    config.validate()
    if seed < 0:
        raise InvalidConfig("seed must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6D6F64]))
    params = {name: rng.standard_normal(shape) * 0.01 for name, shape in parameter_layout(config)}
    return SpanModel(config=config, seed=seed, params=params)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


@dataclass
class Forward:
    """Outputs of ``forward_batch``: start/end logits (B, L) and the final
    hidden states H (B, L, h), plus what ``backward`` needs besides them.

    ``blocks`` holds one tuple per encoder block: its input x, the attention
    q, k, v and probabilities, their mix ``attn @ v``, the first layer-norm
    cache, the FFN input y, the FFN hidden layer after ReLU, and the second
    layer-norm cache.
    """

    z_s: np.ndarray
    z_e: np.ndarray
    H: np.ndarray
    ids: np.ndarray
    passage: np.ndarray
    blocks: list[tuple]


def layer_norm(x, gain, offset, eps: float = 1e-6):
    """Normalize over the last axis, then apply elementwise gain and offset.

    Returns the output and the cache ``layer_norm_backward`` takes.
    """
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    return xhat * gain + offset, (xhat, inv)


def layer_norm_backward(g, gain, cache):
    """Gradients of ``sum(g * layer_norm(x, gain, offset))`` with respect to
    x, gain and offset, for a (B, L, h) input."""
    xhat, inv = cache
    gx = g * gain
    m1 = gx.mean(axis=-1, keepdims=True)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True)
    return inv * (gx - m1 - xhat * m2), (g * xhat).sum(0).sum(0), g.sum(0).sum(0)


def forward_batch(model: SpanModel, encoded) -> Forward:
    """Run the encoder over a batch; per-sample outputs are independent."""
    cfg = model.config
    ids = np.stack([e.token_ids for e in encoded])
    attention = np.stack([e.attention_mask for e in encoded])
    passage = np.stack([e.passage_mask for e in encoded])
    if ids.shape[1] != cfg.max_len:
        raise ShapeError(f"encoded length {ids.shape[1]} != model max_len {cfg.max_len}")
    if ids.max() >= cfg.vocab_size:
        raise ShapeError("token id outside the model vocabulary")

    p = model.params
    scale = 1.0 / np.sqrt(cfg.hidden)
    # keys at padded positions are unreachable for every query
    attn_bias = np.where(attention, 0.0, MASKED_LOGIT)[:, None, :]

    x = p["embed"][ids] + model.pos_table
    blocks = []
    for i in range(cfg.layers):
        prefix = f"layer{i}."
        q = x @ p[prefix + "attn_wq"]
        k = x @ p[prefix + "attn_wk"]
        v = x @ p[prefix + "attn_wv"]
        scores = (q @ k.swapaxes(-1, -2)) * scale + attn_bias
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        mixed = attn @ v
        y, ln1 = layer_norm(x + mixed @ p[prefix + "attn_wo"],
                            p[prefix + "ln1_gain"], p[prefix + "ln1_offset"])
        pre = y @ p[prefix + "ffn_w1"] + p[prefix + "ffn_b1"]
        hidden = np.where(pre > 0.0, pre, 0.0)
        out, ln2 = layer_norm(y + (hidden @ p[prefix + "ffn_w2"] + p[prefix + "ffn_b2"]),
                              p[prefix + "ln2_gain"], p[prefix + "ln2_offset"])
        blocks.append((x, q, k, v, attn, mixed, ln1, y, hidden, ln2))
        x = out

    shape = (ids.shape[0], cfg.max_len)
    z_s = np.where(passage, (x @ p["start_vec"].reshape(-1, 1)).reshape(shape) + p["start_bias"],
                   MASKED_LOGIT)
    z_e = np.where(passage, (x @ p["end_vec"].reshape(-1, 1)).reshape(shape) + p["end_bias"],
                   MASKED_LOGIT)
    return Forward(z_s=z_s, z_e=z_e, H=x, ids=ids, passage=passage, blocks=blocks)


def backward(model: SpanModel, cache: Forward, grad_z_s, grad_z_e) -> dict[str, np.ndarray]:
    """Gradients of sum(grad_z_s * z_s) + sum(grad_z_e * z_e) for every
    parameter, in declared order. ``cache`` is left unchanged, so one
    forward can serve several backward passes."""
    if cache is None:
        raise StateError("backward requires the forward cache")
    p = model.params
    scale = 1.0 / np.sqrt(model.config.hidden)
    grads: dict[str, np.ndarray] = {}
    # Weight gradients are batched matmuls summed over the batch axis, bias
    # gradients are .sum(0).sum(0), and a block input's gradient adds the
    # residual and q terms first, then k, then v. This fixes the summation
    # order, and with it the exact bits of every checkpoint a run writes.
    dx = 0.0
    for head, grad_z in (("start", grad_z_s), ("end", grad_z_e)):
        g = np.asarray(grad_z, dtype=np.float64).reshape(cache.z_s.shape) * cache.passage
        grads[f"{head}_bias"] = g.sum(axis=0)
        grads[f"{head}_vec"] = (cache.H.swapaxes(-1, -2) @ g[..., None]).sum(axis=0).reshape(-1)
        dx = dx + g[..., None] @ p[f"{head}_vec"].reshape(1, -1)

    for i in reversed(range(model.config.layers)):
        prefix = f"layer{i}."
        x, q, k, v, attn, mixed, ln1, y, hidden, ln2 = cache.blocks[i]
        d_out, grads[prefix + "ln2_gain"], grads[prefix + "ln2_offset"] = layer_norm_backward(
            dx, p[prefix + "ln2_gain"], ln2)
        grads[prefix + "ffn_b2"] = d_out.sum(0).sum(0)
        grads[prefix + "ffn_w2"] = (hidden.swapaxes(-1, -2) @ d_out).sum(axis=0)
        d_pre = (d_out @ p[prefix + "ffn_w2"].swapaxes(-1, -2)) * (hidden > 0.0)
        grads[prefix + "ffn_b1"] = d_pre.sum(0).sum(0)
        grads[prefix + "ffn_w1"] = (y.swapaxes(-1, -2) @ d_pre).sum(axis=0)
        dy = d_out + d_pre @ p[prefix + "ffn_w1"].swapaxes(-1, -2)

        d_sum, grads[prefix + "ln1_gain"], grads[prefix + "ln1_offset"] = layer_norm_backward(
            dy, p[prefix + "ln1_gain"], ln1)
        grads[prefix + "attn_wo"] = (mixed.swapaxes(-1, -2) @ d_sum).sum(axis=0)
        d_mixed = d_sum @ p[prefix + "attn_wo"].swapaxes(-1, -2)
        d_attn = d_mixed @ v.swapaxes(-1, -2)
        d_v = attn.swapaxes(-1, -2) @ d_mixed
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * scale
        d_q = d_scores @ k
        d_k = (q.swapaxes(-1, -2) @ d_scores).swapaxes(-1, -2)
        xt = x.swapaxes(-1, -2)
        grads[prefix + "attn_wq"] = (xt @ d_q).sum(axis=0)
        grads[prefix + "attn_wk"] = (xt @ d_k).sum(axis=0)
        grads[prefix + "attn_wv"] = (xt @ d_v).sum(axis=0)
        dx = d_sum + d_q @ p[prefix + "attn_wq"].swapaxes(-1, -2)
        dx = dx + d_k @ p[prefix + "attn_wk"].swapaxes(-1, -2)
        dx = dx + d_v @ p[prefix + "attn_wv"].swapaxes(-1, -2)

    grads["embed"] = np.zeros_like(p["embed"])
    np.add.at(grads["embed"], cache.ids, dx)
    return {name: grads[name] for name in p}


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_model(model: SpanModel, path) -> None:
    layout = parameter_layout(model.config)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "seed": model.seed,
        "params": [{"name": name, "shape": list(shape)} for name, shape in layout],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name, shape in layout:
            arr = model.params[name]
            if arr.shape != shape:
                raise ShapeError(f"parameter {name} has shape {arr.shape}, expected {shape}")
            fh.write(arr.astype("<f8").tobytes())


def load_model(path) -> SpanModel:
    with Path(path).open("rb") as fh:
        (header_len,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(header_len).decode("utf-8"))
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise InvalidConfig(f"unsupported checkpoint version in {path}")
        config = ModelConfig(**header["config"])
        params = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(8 * count)
            params[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    expected = [name for name, _ in parameter_layout(config)]
    if expected != [e["name"] for e in header["params"]]:
        raise InvalidConfig(f"checkpoint {path} does not match the declared layout")
    return SpanModel(config=config, seed=int(header["seed"]), params=params)
