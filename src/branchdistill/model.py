"""Compact trainable span-extraction model.

The encoder embeds the packed (question, passage) input, adds a fixed
sinusoidal positional table, and runs one block of single-head scaled
dot-product self-attention and a position-wise feed-forward network, each
with residual connection and post layer norm. Two linear heads project
the contextual representation to per-position start/end logits; each head
adds a trainable per-position bias vector of length ``max_len``. Positions
outside the passage window (start token, question, separator, padding) are
forced to a large negative logit so they carry ~zero probability.

A dataset enters the model as one ``Encoded`` record of row arrays: the
packed token ids (N, max_len) and, per row, the passage's first position
``offset``, the row's real length ``end`` and the gold span, an (N, 2)
array of (start, end). Only this module turns ``offset`` and ``end`` into
the passage mask and the attention bias.

Start and end logits are one (..., 2, max_len) block everywhere, the start
head at index 0 of axis 1 and the end head at index 1: ``forward_batch``
returns the batch's (B, 2, max_len) block, ``backward`` takes the logit
gradient in the same form, and ``forward_logits`` returns every row's
(N, 2, max_len) block, the form a logit store and decoding both take.

``forward_batch`` trims each batch to its longest real input: with n that
length, the embedding, the block and both heads run on n positions, and
the logits are padded back to ``max_len`` with ``MASKED_LOGIT``. It keeps
the block's activations, and ``backward`` runs the written-out reverse pass
of that one architecture. Outputs depend on n only in their last bits,
through the rounding of sums and matrix products over positions.

Both passes update a temporary in place whenever the next operation
consumes it (``attn *= scale``, ``t += x``, ``gx -= m1``) and allocate
only the arrays they keep or return. Each in-place line does the same
IEEE operations on the same operands in the same order as the plain
expression it replaces (``a + b`` and ``b + a`` round alike, and numpy's
``mean`` and ``var`` are a sum over h divided by h), so every output bit
is unchanged. A whole-batch temporary that is freed at once returns its
pages, and the next one faults them in again. ``layer_norm`` leaves its
input unchanged.

All parameters live in one float64 vector, ``SpanModel.flat``, in declared
order; ``param_views`` gives the per-name views that are
``SpanModel.params``, and the views of a same-shaped flat gradient buffer
that ``backward`` writes through.
Checkpoints are a JSON header, which holds the model's vocabulary, followed
by that vector as one little-endian float64 block, and round-trip
bit-exactly. Checkpoints and logit stores share that layout and one
reader, ``read_artifact``, which maps a cut, garbled or overlong file, a
bad header field or a non-finite value to ``InvalidConfig``; each caller
parses only its own header fields.

A checkpoint carries the vocabulary its embedding rows belong to, so it
runs on its own, and it is checked where it enters, by ``load_model``. The
vocabulary's size is the embedding's height, the layout functions' ``n_ids``.
Everything else here trusts its inputs: ``forward_batch`` takes rows
``encode_dataset`` packed at the model's ``max_len`` with ``SpanModel.vocab``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .corpus import RESERVED_TOKENS, Sample, dumps, setting, typed, write_file
from .errors import InvalidConfig

MASKED_LOGIT = -1e9

PAD_ID = 0
START_ID = 1
SEP_ID = 2
OOV_BASE_ID = 3
OOV_BUCKETS = 100
FIRST_TOKEN_ID = OOV_BASE_ID + OOV_BUCKETS

CHECKPOINT_VERSION = 4

# Rows per encoder pass in ``forward_logits``, the forward-only pass of logit
# dumps and evaluation.
FORWARD_BATCH_SIZE = 32


@dataclass(frozen=True)
class ModelConfig:
    """The encoder's shape; the vocabulary sets the embedding's height."""

    hidden: int = setting(32, "model.hidden", "encoder hidden size")
    ffn: int = setting(64, "model.ffn", "feed-forward inner size")
    max_len: int = setting(64, "model.max_len", "packed input length")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidConfig(f"{f.name} must be an integer, got {value!r}")
        if self.hidden < 2 or self.hidden % 2 != 0:
            raise InvalidConfig(f"hidden must be an even number >= 2, got {self.hidden}")
        for name, least in (("ffn", 1), ("max_len", 4)):
            if getattr(self, name) < least:
                raise InvalidConfig(f"{name} must be >= {least}, got {getattr(self, name)}")


@functools.cache
def oov_id(token: str) -> int:
    """The id of a token with no embedding row, ``OOV_BASE_ID`` plus its SHA-1
    modulo ``OOV_BUCKETS``; hashed once per process, for every ``Vocabulary``."""
    return OOV_BASE_ID + int(hashlib.sha1(token.encode("utf-8")).hexdigest(), 16) % OOV_BUCKETS


class _RowIds(dict):
    """Row ids by token; a lookup of any other token gives its ``oov_id``."""

    __missing__ = staticmethod(oov_id)


class Vocabulary:
    """Token-to-id map with deterministic hash buckets for unseen tokens.

    Each token of ``tokens`` has its own id, an embedding row; any other
    token gets its ``oov_id``. ``token_id`` is a dict lookup, which makes
    no Python call for a token with a row.
    """

    def __init__(self, tokens):
        self.tokens = sorted(set(tokens))
        for token in self.tokens:
            if token in RESERVED_TOKENS:
                raise InvalidConfig(f"reserved marker {token!r} cannot enter the vocabulary")
        rows = _RowIds({t: FIRST_TOKEN_ID + i for i, t in enumerate(self.tokens)})
        self.token_id = rows.__getitem__

    @property
    def size(self) -> int:
        return FIRST_TOKEN_ID + len(self.tokens)

    def to_dict(self) -> dict:
        return {"oov_buckets": OOV_BUCKETS, "tokens": self.tokens}

    @classmethod
    def from_dict(cls, raw: dict) -> "Vocabulary":
        """The vocabulary ``to_dict`` wrote; a token list that is not all
        strings, or another bucket count, raises ``TypeError`` or ``ValueError``."""
        tokens = raw["tokens"]
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise TypeError("tokens is not a list of strings")
        if typed(raw, "oov_buckets", int) != OOV_BUCKETS:
            raise ValueError(f"oov_buckets is {raw['oov_buckets']}, not {OOV_BUCKETS}")
        return cls(tokens)


@dataclass(frozen=True)
class Encoded:
    """Packed inputs of N samples as row arrays.

    Row i of ``ids`` (N, max_len) is [START] question [SEP] passage, padded
    with ``PAD_ID``. The passage fills positions ``offset[i]`` up to
    ``end[i]`` (exclusive), which is also the row's real length, and the
    gold span, row i of ``gold`` (N, 2) as (start, end), lies inside it, in
    packed coordinates. Indexing selects rows.
    """

    ids: np.ndarray
    offset: np.ndarray
    end: np.ndarray
    gold: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, rows) -> "Encoded":
        return Encoded(*(getattr(self, f.name)[rows] for f in fields(self)))

    def passage_mask(self) -> np.ndarray:
        """(N, max_len) bool, True at the passage positions of each row."""
        positions = np.arange(self.ids.shape[1])
        return (positions >= self.offset[:, None]) & (positions < self.end[:, None])


def encode_dataset(samples, vocab: Vocabulary, max_len: int):
    """Pack every sample that fits the window into one ``Encoded``, and
    count the rest.

    A sample is skipped when its question fills the window or its gold span
    ends at or past the window's end. Each token is looked up once, and
    only the passage tokens that fit are looked up. Returns (``Encoded``
    rows of the kept samples, kept samples, skipped count).
    """
    token_id = vocab.token_id
    tokens: list[int] = []
    columns: list[int] = []
    kept: list[Sample] = []
    skipped = 0
    for sample in samples:
        row = [START_ID, *map(token_id, sample.question_tokens), SEP_ID]
        offset = len(row)
        end = min(offset + len(sample.passage_tokens), max_len)
        # a question that fills the window leaves end <= offset, so this skips it too
        if sample.gold_end + offset >= end:
            skipped += 1
            continue
        row += map(token_id, sample.passage_tokens[: end - offset])
        tokens += row
        columns += (offset, end, sample.gold_start + offset, sample.gold_end + offset)
        kept.append(sample)

    table = np.array(columns, dtype=np.int64).reshape(-1, 4)
    offset, end = table[:, 0].copy(), table[:, 1].copy()
    ids = np.full((len(kept), max_len), PAD_ID, dtype=np.int64)
    # row-major order of the mask is the order the rows were appended in
    ids[np.arange(max_len) < end[:, None]] = tokens
    return Encoded(ids, offset, end, table[:, 2:].copy()), kept, skipped


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def parameter_layout(config: ModelConfig, n_ids: int) -> list[tuple[str, tuple[int, ...]]]:
    """Declared parameter order for a vocabulary of ``n_ids`` ids; init,
    serialization, and the optimizer all iterate in exactly this order."""
    h, f, L = config.hidden, config.ffn, config.max_len
    return [
        ("embed", (n_ids, h)),
        ("attn_wq", (h, h)),
        ("attn_wk", (h, h)),
        ("attn_wv", (h, h)),
        ("attn_wo", (h, h)),
        ("ln1_gain", (h,)),
        ("ln1_offset", (h,)),
        ("ffn_w1", (h, f)),
        ("ffn_b1", (f,)),
        ("ffn_w2", (f, h)),
        ("ffn_b2", (h,)),
        ("ln2_gain", (h,)),
        ("ln2_offset", (h,)),
        ("start_vec", (h,)),
        ("start_bias", (L,)),
        ("end_vec", (h,)),
        ("end_bias", (L,)),
    ]


def param_views(config: ModelConfig, n_ids: int, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Reshaped views of the flat vector ``flat``, one per parameter in
    declared order; writing through a view writes into ``flat``."""
    views: dict[str, np.ndarray] = {}
    pos = 0
    for name, shape in parameter_layout(config, n_ids):
        size = math.prod(shape)
        views[name] = flat[pos : pos + size].reshape(shape)
        pos += size
    return views


def parameter_count(config: ModelConfig, n_ids: int) -> int:
    return sum(math.prod(shape) for _, shape in parameter_layout(config, n_ids))


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
    """A model's config and flat parameter vector, and the vocabulary whose
    ids index its embedding rows."""

    config: ModelConfig
    flat: np.ndarray
    vocab: Vocabulary

    def __post_init__(self):
        self.params = param_views(self.config, self.vocab.size, self.flat)
        self.pos_table = positional_table(self.config.max_len, self.config.hidden)


def init_model(config: ModelConfig, seed: int, vocab: Vocabulary) -> SpanModel:
    """All trainable weights drawn from N(0, 0.01^2) with a seeded generator;
    the embedding has one row per id of ``vocab``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6D6F64]))
    # one draw of the whole vector equals per-parameter draws in declared order
    flat = rng.standard_normal(parameter_count(config, vocab.size)) * 0.01
    return SpanModel(config=config, flat=flat, vocab=vocab)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


@dataclass
class Forward:
    """Outputs of ``forward_batch``: the (B, 2, L) start/end logit block z
    and the final hidden states H (B, n, h), plus what ``backward`` needs
    besides them: the token ids (B, n), the passage mask (B, L) and the
    encoder block's activations, all over n positions, where n is the
    batch's longest real input.

    ``activations`` holds the block's input x, the attention q, k, v and
    probabilities, their mix ``attn @ v``, the first layer-norm cache, the
    FFN input y, the FFN hidden layer after ReLU, and the second layer-norm
    cache; the block's output is H.
    """

    z: np.ndarray
    H: np.ndarray
    ids: np.ndarray
    passage: np.ndarray
    activations: tuple


def layer_norm(x, gain, offset, eps: float = 1e-6):
    """Normalize over the last axis, then apply elementwise gain and offset.

    Returns the output and the cache ``layer_norm_backward`` takes; ``x``
    is left unchanged.
    """
    h = x.shape[-1]
    # x.mean and x.var are these sums divided by h
    xhat = x - x.sum(axis=-1, keepdims=True) / h
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / h + eps)
    xhat *= inv
    out = xhat * gain
    out += offset
    return out, (xhat, inv)


def layer_norm_backward(g, gain, cache):
    """Gradients of ``sum(g * layer_norm(x, gain, offset))`` with respect to
    x, gain and offset, for a (B, L, h) input."""
    xhat, inv = cache
    h = g.shape[-1]
    gx = g * gain
    m1 = gx.sum(axis=-1, keepdims=True) / h
    m2 = (gx * xhat).sum(axis=-1, keepdims=True) / h
    gx -= m1
    gx -= xhat * m2
    gx *= inv
    return gx, (g * xhat).sum(0).sum(0), g.sum(0).sum(0)


def forward_batch(model: SpanModel, encoded: Encoded) -> Forward:
    """Run the encoder over a batch, trimmed to its longest real input.

    No position at or past n, the largest ``end`` in the batch, is attended
    to or lies in a passage: the encoder and heads run on n positions, and
    the (B, 2, L) logits hold ``MASKED_LOGIT`` past n. Per-sample outputs are
    independent of the rest of the batch up to the last bits: the rounding
    of sums and matrix products depends on n.
    """
    cfg = model.config
    n = int(encoded.end.max())
    ids = encoded.ids[:, :n]
    passage = encoded.passage_mask()

    p = model.params
    scale = 1.0 / np.sqrt(cfg.hidden)
    # keys at padded positions are unreachable for every query
    attn_bias = np.where(np.arange(n) < encoded.end[:, None], 0.0, MASKED_LOGIT)[:, None, :]

    x = p["embed"][ids]
    x += model.pos_table[:n]
    q = x @ p["attn_wq"]
    k = x @ p["attn_wk"]
    v = x @ p["attn_wv"]
    attn = q @ k.swapaxes(-1, -2)
    attn *= scale
    attn += attn_bias
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    mixed = attn @ v
    t = mixed @ p["attn_wo"]
    t += x
    y, ln1 = layer_norm(t, p["ln1_gain"], p["ln1_offset"])
    hidden = y @ p["ffn_w1"]
    hidden += p["ffn_b1"]
    np.maximum(hidden, 0.0, out=hidden)
    # np.maximum keeps -0.0; adding 0.0 makes it +0.0 and leaves every other value
    hidden += 0.0
    t = hidden @ p["ffn_w2"]
    t += p["ffn_b2"]
    t += y
    H, ln2 = layer_norm(t, p["ln2_gain"], p["ln2_offset"])

    z = np.full((len(passage), 2, cfg.max_len), MASKED_LOGIT)
    inside = passage[:, :n]
    for i, head in enumerate(("start", "end")):
        z[:, i, :n] = np.where(inside, (H @ p[f"{head}_vec"].reshape(-1, 1))[..., 0]
                               + p[f"{head}_bias"][:n], MASKED_LOGIT)
    return Forward(z=z, H=H, ids=ids, passage=passage,
                   activations=(x, q, k, v, attn, mixed, ln1, y, hidden, ln2))


def forward_logits(model: SpanModel, encoded: Encoded) -> np.ndarray:
    """Start and end logits of every row of ``encoded`` as one
    (N, 2, max_len) block, computed ``FORWARD_BATCH_SIZE`` rows at a time."""
    logits = np.empty((len(encoded), 2, model.config.max_len))
    for lo in range(0, len(encoded), FORWARD_BATCH_SIZE):
        logits[lo : lo + FORWARD_BATCH_SIZE] = forward_batch(
            model, encoded[lo : lo + FORWARD_BATCH_SIZE]).z
    return logits


def backward(model: SpanModel, cache: Forward, dz, grads: dict[str, np.ndarray]) -> None:
    """Gradient of sum(dz * cache.z) with respect to ``model.flat``, for a
    logit gradient ``dz`` shaped like the (B, 2, L) block ``cache.z``.

    The gradient is written through ``grads``, the ``param_views`` of a
    flat buffer laid out like ``model.flat``, which a training run builds
    once and reuses. Only the embedding block is cleared first: every other
    block is overwritten whole. ``cache`` is left unchanged, so one forward
    can serve several backward passes.
    """
    p = model.params
    scale = 1.0 / np.sqrt(model.config.hidden)
    # Weight gradients are batched matmuls summed over the batch axis, bias
    # gradients are .sum(0).sum(0), and a block input's gradient adds the
    # residual and q terms first, then k, then v. This fixes the summation
    # order, and with it the exact bits of every checkpoint a run writes.
    n = cache.H.shape[1]
    dx = np.zeros_like(cache.H)
    dz = np.asarray(dz, dtype=np.float64).reshape(cache.z.shape) * cache.passage[:, None]
    for i, head in enumerate(("start", "end")):
        g = dz[:, i]
        grads[f"{head}_bias"][...] = g.sum(axis=0)
        g = g[:, :n]
        grads[f"{head}_vec"][...] = (cache.H.swapaxes(-1, -2) @ g[..., None]).sum(axis=0)[:, 0]
        dx += g[..., None] @ p[f"{head}_vec"].reshape(1, -1)

    x, q, k, v, attn, mixed, ln1, y, hidden, ln2 = cache.activations
    d_out, grads["ln2_gain"][...], grads["ln2_offset"][...] = (
        layer_norm_backward(dx, p["ln2_gain"], ln2))
    grads["ffn_b2"][...] = d_out.sum(0).sum(0)
    grads["ffn_w2"][...] = (hidden.swapaxes(-1, -2) @ d_out).sum(axis=0)
    d_pre = d_out @ p["ffn_w2"].swapaxes(-1, -2)
    d_pre *= hidden > 0.0
    grads["ffn_b1"][...] = d_pre.sum(0).sum(0)
    grads["ffn_w1"][...] = (y.swapaxes(-1, -2) @ d_pre).sum(axis=0)
    dy = d_pre @ p["ffn_w1"].swapaxes(-1, -2)
    dy += d_out

    d_sum, grads["ln1_gain"][...], grads["ln1_offset"][...] = (
        layer_norm_backward(dy, p["ln1_gain"], ln1))
    grads["attn_wo"][...] = (mixed.swapaxes(-1, -2) @ d_sum).sum(axis=0)
    d_mixed = d_sum @ p["attn_wo"].swapaxes(-1, -2)
    d_v = attn.swapaxes(-1, -2) @ d_mixed
    d_scores = d_mixed @ v.swapaxes(-1, -2)
    d_scores -= (d_scores * attn).sum(axis=-1, keepdims=True)
    d_scores *= attn
    d_scores *= scale
    d_q = d_scores @ k
    d_k = (q.swapaxes(-1, -2) @ d_scores).swapaxes(-1, -2)
    xt = x.swapaxes(-1, -2)
    grads["attn_wq"][...] = (xt @ d_q).sum(axis=0)
    grads["attn_wk"][...] = (xt @ d_k).sum(axis=0)
    grads["attn_wv"][...] = (xt @ d_v).sum(axis=0)
    dx = d_q @ p["attn_wq"].swapaxes(-1, -2)
    dx += d_sum
    dx += d_k @ p["attn_wk"].swapaxes(-1, -2)
    dx += d_v @ p["attn_wv"].swapaxes(-1, -2)

    grads["embed"][...] = 0.0
    np.add.at(grads["embed"], cache.ids, dx)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def pack_artifact(header: dict, values: np.ndarray) -> bytes:
    """The layout of checkpoints and logit stores: a 4-byte little-endian
    length, the JSON ``header``, then ``values`` as one little-endian
    float64 block."""
    blob = dumps(header).encode("utf-8")
    block = values.astype("<f8", copy=False).tobytes()
    return b"".join((len(blob).to_bytes(4, "little"), blob, block))


def read_artifact(path, kind: str, version: int, parse) -> tuple[bytes, object, np.ndarray]:
    """The bytes of a file in the ``pack_artifact`` layout, ``parse`` of its
    header, and its block.

    ``parse(header)`` returns its result and the shape of the block, and
    raises ``KeyError``, ``TypeError`` or ``ValueError`` for a bad field. A
    cut or garbled header, a bad field, a block of any other size than that
    shape or a non-finite value raises ``InvalidConfig`` ("<kind> <path> is
    corrupt: ..."), and so does a ``format_version`` other than ``version``.
    """
    data = Path(path).read_bytes()
    start = 4 + int.from_bytes(data[:4], "little")

    def corrupt(what: str) -> InvalidConfig:
        return InvalidConfig(f"{kind} {path} is corrupt: {what}")

    try:
        if len(data) < 4 or start > len(data):
            raise ValueError(f"the header needs {max(start, 4)} bytes, the file has {len(data)}")
        header = json.loads(data[4:start].decode("utf-8"))
    except ValueError as exc:
        raise corrupt(f"unreadable header ({exc})") from exc
    if not isinstance(header, dict) or header.get("format_version") != version:
        raise InvalidConfig(f"unsupported {kind} version in {path}")
    try:
        result, shape = parse(header)
    except (KeyError, TypeError, ValueError) as exc:
        raise corrupt(f"bad header field ({exc})") from exc
    size = 8 * math.prod(shape)
    if len(data) - start != size:
        raise corrupt(f"a block of {len(data) - start} bytes, expected {size}")
    block = np.frombuffer(data, dtype="<f8", offset=start).reshape(shape)
    if not np.isfinite(block).all():
        raise corrupt("non-finite values")
    return data, result, block


def save_model(model: SpanModel, path) -> None:
    write_file(path, pack_artifact({
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "params": [{"name": name, "shape": list(shape)}
                   for name, shape in parameter_layout(model.config, model.vocab.size)],
        "vocabulary": model.vocab.to_dict(),
    }, model.flat))


def load_model(path) -> SpanModel:
    """Read a checkpoint written by ``save_model``, checked by
    ``read_artifact``; a malformed vocabulary, or a parameter list other
    than the layout it and the config make, is a bad header field."""
    def parse(header):
        config = ModelConfig(**header["config"])
        vocab = Vocabulary.from_dict(header["vocabulary"])
        entries = [(e["name"], tuple(e["shape"])) for e in header["params"]]
        if entries != parameter_layout(config, vocab.size):
            raise ValueError("the parameter list does not match the config and vocabulary")
        return (config, vocab), (parameter_count(config, vocab.size),)

    _, (config, vocab), flat = read_artifact(path, "checkpoint", CHECKPOINT_VERSION, parse)
    return SpanModel(config=config, flat=flat.astype(np.float64), vocab=vocab)
