"""Training objectives and multi-teacher aggregation.

The hard-label term is a per-position negative log-likelihood evaluated at
temperature 1. The distillation term softens aggregated teacher logits and
student logits with the same temperature, takes the start and end
cross-entropies, averages over the batch, and scales by temperature^2 so
its gradient magnitude stays comparable across temperatures. The batch
forms, ``batch_nll`` and ``batch_kd``, each make one pass over the
student's logits and return the loss together with its written-out
gradient, which ``model.backward`` carries through the encoder. Teachers
are combined by a per-teacher weighted sum of their raw logits; weights are
either fixed at 1/K or derived per instance from the entropy (impurity) of
each teacher's predicted distribution. ``softmax_temperature`` and
``entropy``, the float64 primitives of all of these, carry no gradient.

Logits, their gradients, teacher targets and store rows are all
(..., 2, L) blocks, start head first, as ``model`` defines them, and gold
spans are (..., 2) arrays of (start, end). Fixed weights are one (K,)
vector; impurity weights, computed one head at a time, are (..., 2, K).
Impurity weighting and aggregation both take a leading batch axis, so one
call of each serves every instance of a run.

Teacher logits are always consumed from a precomputed store, never
recomputed during student training. The store is one file per teacher: a
length-prefixed JSON header naming the teacher, ``max_len`` and the sample
ids in row order, then one (N, 2, L) little-endian float64 block of start
and end logits. ``write_logit_store`` takes the block as
``model.forward_logits`` returns it and trusts its shape; it refuses only a
non-finite value or a repeated id, which would make a store no one could
open. ``LogitStore`` reads the file once when it is opened, parses its
own header fields and checks the ids; ``model.read_artifact``, the reader
it shares with checkpoints, checks the block's exact size and every value.
It then serves rows from memory.

Each setting and artifact is checked once, where it enters: by the CLI's
config parser, the construction of ``train.TrainConfig``, ``train.train``'s
store checks and ``LogitStore``. The numeric core (softmax, entropy, weighting,
aggregation and the objectives) trusts its callers and repeats none of
those checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfig
from .corpus import typed, write_file
from .model import pack_artifact, read_artifact

STORE_VERSION = 2
LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class LogitRecord:
    """One teacher's start and end logits (L,) for one sample."""

    sample_id: str
    teacher_id: str
    z_s: np.ndarray
    z_e: np.ndarray


def fixed_weights(k: int) -> np.ndarray:
    """Uniform 1/K weights, shared by both heads and every instance."""
    return np.full(k, 1.0 / k)


def impurity_weights(per_teacher_logits, sign: int = 1) -> np.ndarray:
    """Per-instance teacher weights from prediction entropy.

    ``per_teacher_logits`` holds one array of shape (..., L) per teacher, all
    of one shape; the result has shape (..., K), one row of K weights per
    instance. Each teacher's logits are softened at temperature 1; the
    entropy of the resulting distribution is the teacher's impurity, and the
    weights are the softmax of ``sign * impurity``. The default sign (+1)
    favours higher-entropy teachers; sign=-1 favours the more confident ones.
    """
    impurities = entropy(softmax_temperature(np.stack(per_teacher_logits, axis=-2), 1.0))
    return softmax_temperature(sign * impurities, 1.0)


def aggregate_logits(blocks, weights) -> np.ndarray:
    """Weighted sum of per-teacher logit blocks, in teacher order.

    ``blocks`` holds one (..., 2, L) block per teacher, all of one shape.
    ``weights`` is (K,), shared by both heads and every instance, or
    (..., 2, K), one row of K weights per instance and head, each row
    non-negative and summing to 1.
    """
    z = np.zeros(np.shape(blocks[0]))
    for k, block in enumerate(blocks):
        z += weights[..., k, None] * block
    return z


# ---------------------------------------------------------------------------
# Softmax, entropy and the batch objectives with their logit gradients
# ---------------------------------------------------------------------------


def softmax_temperature(z: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Softmax of ``z / tau`` along the last axis, max-subtracted for stability."""
    shifted = (z - z.max(axis=-1, keepdims=True)) / tau
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def entropy(p: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in nats along the last axis, with 0 * ln 0 = 0 and
    ``log`` arguments clamped below at ``LOG_FLOOR``.

    A float for one distribution, an array of shape ``p.shape[:-1]`` for a
    batch of them.
    """
    terms = np.where(p > 0.0, p * np.log(np.maximum(p, LOG_FLOOR)), 0.0)
    return -terms.sum(axis=-1)


def _log_softmax(z, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-softmax of ``z / tau`` over the last axis, and its exponential."""
    shifted = (z - z.max(axis=-1, keepdims=True)) / tau
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return logp, np.exp(logp)


def batch_nll(z, gold: np.ndarray):
    """Mean hard-label loss over a (B, 2, L) block of student logits, at
    temperature 1, with (B, 2) gold (start, end) positions, and its gradient
    with respect to ``z``.

    Returns ``(value, dz)``; each gradient row is
    ``(softmax(z) - one_hot(gold)) / B``.
    """
    at_gold = (np.arange(len(gold))[:, None], (0, 1), gold)
    c = -1.0 / len(gold)
    logp, p = _log_softmax(z, 1.0)
    value = logp[at_gold]
    # (one_hot * c) - p * c, to the bit: 0 - p * c is p * -c, and c - p * c is c + p * -c
    dz = p * -c
    dz[at_gold] += c
    return -float((value[:, 0] + value[:, 1]).mean()), dz


def batch_kd(z, teacher_p: np.ndarray, tau: float):
    """Mean distillation loss over a (B, 2, L) block of student logits
    against the (B, 2, L) softened teacher targets ``teacher_p``, scaled by
    tau^2 after averaging, and its gradient with respect to ``z``.

    Returns ``(value, dz)``; each gradient row is
    ``tau * (softmax(z / tau) - teacher_p) / B``.
    """
    c = tau * tau / len(z)
    logq, q = _log_softmax(z, tau)
    value = (logq * teacher_p).sum(axis=-1)
    g = -c * teacher_p
    dz = (g - q * g.sum(axis=-1, keepdims=True)) / tau
    # 0.0 - a - b rather than -(a + b): they differ only in the sign of a zero loss
    return float((0.0 - value[:, 0] - value[:, 1]).mean() * (tau * tau)), dz


# ---------------------------------------------------------------------------
# Logit store
# ---------------------------------------------------------------------------


def write_logit_store(path, teacher_id: str, sample_ids, logits: np.ndarray) -> None:
    """Write one teacher's (N, 2, L) block of start and end logits, row i
    belonging to ``sample_ids[i]``: a length-prefixed JSON header with the
    ids and L, then the block. A non-finite value or a repeated id raises
    before anything is written."""
    sample_ids = list(sample_ids)
    if not np.isfinite(logits).all():
        raise InvalidConfig(f"logits for {teacher_id!r} contain non-finite values")
    if len(set(sample_ids)) != len(sample_ids):
        raise InvalidConfig(f"duplicate sample ids in the store for {teacher_id!r}")
    write_file(path, pack_artifact({
        "format_version": STORE_VERSION,
        "teacher_id": teacher_id,
        "max_len": logits.shape[2],
        "sample_ids": sample_ids,
    }, logits))


def _parse_store_header(header):
    """(teacher id, row of each sample id) and the block's shape."""
    max_len, sample_ids = typed(header, "max_len", int), header["sample_ids"]
    if max_len < 1:
        raise ValueError(f"max_len {max_len}")
    if not isinstance(sample_ids, list) or not all(isinstance(s, str) for s in sample_ids):
        raise TypeError("sample_ids is not a list of strings")
    rows = {sid: row for row, sid in enumerate(sample_ids)}
    if len(rows) != len(sample_ids):
        raise ValueError("repeated sample ids")
    return (typed(header, "teacher_id", str), rows), (len(rows), 2, max_len)


class LogitStore:
    """One teacher's precomputed logits, read and checked once when opened.

    Opening reads the file in one pass with ``model.read_artifact``, which
    checks the header, that the block holds exactly (count, 2, L) values
    and that every value is finite; the header's sample ids must be
    distinct strings. A defect raises ``InvalidConfig``. The (count, 2, L)
    block is then held in memory, ``get`` and ``take`` serve rows of it,
    and ``sha256`` is the digest of the bytes read.
    """

    def __init__(self, path):
        self.path = Path(path)
        data, (self.teacher_id, self._rows), self._values = read_artifact(
            path, "logit store", STORE_VERSION, _parse_store_header)
        self.sha256 = hashlib.sha256(data).hexdigest()
        self.count, _, self.max_len = self._values.shape

    def sample_ids(self) -> list[str]:
        return sorted(self._rows)

    def get(self, sample_id: str) -> LogitRecord:
        row = self._rows.get(sample_id)
        if row is None:
            raise InvalidConfig(
                f"teacher {self.teacher_id!r} has no logits for sample {sample_id!r}"
            )
        return LogitRecord(sample_id=sample_id, teacher_id=self.teacher_id,
                           z_s=self._values[row, 0].copy(), z_e=self._values[row, 1].copy())

    def take(self, sample_ids) -> np.ndarray:
        """The (N, 2, L) logit rows of ``sample_ids``, in that order."""
        sample_ids = list(sample_ids)
        missing = [sid for sid in sample_ids if sid not in self._rows]
        if missing:
            raise InvalidConfig(
                f"{len(missing)} samples lack teacher logits (first: {missing[0]!r} "
                f"from teacher {self.teacher_id!r})"
            )
        return self._values[[self._rows[sid] for sid in sample_ids]]
