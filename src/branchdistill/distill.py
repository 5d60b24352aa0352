"""Training objectives and multi-teacher aggregation.

The hard-label term is a per-position negative log-likelihood evaluated at
temperature 1. The distillation term softens aggregated teacher logits and
student logits with the same temperature, takes the start and end
cross-entropies, averages over the batch, and scales by temperature^2 so
its gradient magnitude stays comparable across temperatures. The batch
forms, ``batch_nll`` and ``batch_kd``, return each loss together with its
written-out gradient with respect to the student's start and end logits,
which ``model.backward`` carries through the encoder. Teachers are
combined by a per-teacher weighted sum of their raw logits; weights are
either fixed at 1/K or derived per instance from the entropy (impurity) of
each teacher's predicted distribution.

Impurity weighting and aggregation both take a leading batch axis, so one
call of each serves every instance of a run.

Teacher logits are always consumed from a precomputed store, never
recomputed during student training. The store is a binary container per
teacher: a JSON header, length-prefixed records, and an appended
sample-id -> offset index. ``LogitStore`` reads the file once when it is
opened, checks its structure, every record's sample id and every value,
and then serves records from memory.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    IncompleteLogits,
    InvalidConfig,
    InvalidLabel,
    InvalidParameter,
    ShapeError,
)
from .numerics import LOG_FLOOR, cross_entropy, entropy, softmax_temperature

STORE_VERSION = 1


@dataclass(frozen=True)
class TeacherWeights:
    """Per-teacher mixing weights for the start and end heads.

    Each head is (K,), shared by every instance, or (..., K), one row of
    weights per instance.
    """

    start: np.ndarray
    end: np.ndarray

    def validate(self) -> None:
        for head in (self.start, self.end):
            w = np.asarray(head, dtype=np.float64)
            if np.any(w < 0.0):
                raise InvalidParameter("teacher weights must be non-negative")
            if np.any(np.abs(w.sum(axis=-1) - 1.0) > 1e-9):
                raise InvalidParameter("teacher weights must sum to 1")


@dataclass(frozen=True)
class LogitRecord:
    sample_id: str
    teacher_id: str
    z_s: np.ndarray
    z_e: np.ndarray

    def validate(self, max_len: int) -> None:
        for name, z in (("z_s", self.z_s), ("z_e", self.z_e)):
            if z.shape != (max_len,):
                raise ShapeError(f"{name} has shape {z.shape}, expected ({max_len},)")
            if not np.all(np.isfinite(z)):
                raise InvalidParameter(f"{name} contains non-finite values")


@dataclass(frozen=True)
class LogitRows:
    """One teacher's logits for many samples, as (N, L) start and end arrays."""

    teacher_id: str
    z_s: np.ndarray
    z_e: np.ndarray


def fixed_weights(k: int) -> TeacherWeights:
    """Uniform 1/K weights for both heads."""
    if k < 1:
        raise InvalidConfig(f"need at least one teacher, got {k}")
    w = np.full(k, 1.0 / k)
    return TeacherWeights(start=w, end=w.copy())


def impurity_weights(per_teacher_logits, sign: int = 1) -> np.ndarray:
    """Per-instance teacher weights from prediction entropy.

    ``per_teacher_logits`` holds one array of shape (..., L) per teacher; the
    result has shape (..., K), one row of K weights per instance. Each
    teacher's logits are softened at temperature 1; the entropy of the
    resulting distribution is the teacher's impurity, and the weights are the
    softmax of ``sign * impurity``. The default sign (+1) favours
    higher-entropy teachers; sign=-1 favours the more confident ones.
    """
    logits = [np.asarray(z, dtype=np.float64) for z in per_teacher_logits]
    if not logits:
        raise InvalidConfig("need at least one teacher")
    length = logits[0].shape
    for z in logits:
        if z.shape != length:
            raise ShapeError("teacher logit lengths differ")
    if sign not in (1, -1):
        raise InvalidParameter(f"sign must be +1 or -1, got {sign}")
    impurities = entropy(softmax_temperature(np.stack(logits, axis=-2), 1.0))
    return softmax_temperature(sign * impurities, 1.0)


def aggregate_logits(records, weights: TeacherWeights) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sum of per-teacher start/end logits, in record order.

    ``records`` holds one entry per teacher whose ``z_s`` and ``z_e`` share
    one shape (..., L): a ``LogitRecord`` for one instance or ``LogitRows``
    for many. Weights broadcast over the leading axes.
    """
    records = list(records)
    if not records:
        raise IncompleteLogits("no teacher records to aggregate")
    weights.validate()
    ws = np.asarray(weights.start, dtype=np.float64)
    we = np.asarray(weights.end, dtype=np.float64)
    if len(records) != ws.shape[-1] or len(records) != we.shape[-1]:
        raise IncompleteLogits(
            f"{len(records)} teacher records for {ws.shape[-1]} weights"
        )
    length = records[0].z_s.shape
    for r in records:
        if r.z_s.shape != length or r.z_e.shape != length:
            raise ShapeError("teacher logit lengths differ")
    z_s = np.zeros(length)
    z_e = np.zeros(length)
    for k, record in enumerate(records):
        z_s += ws[..., k, None] * record.z_s
        z_e += we[..., k, None] * record.z_e
    return z_s, z_e


def nll_loss(p_s, p_e, gold_start: int, gold_end: int) -> float:
    """-(ln p_s[gold_start] + ln p_e[gold_end]) for one instance."""
    p_s = np.asarray(p_s, dtype=np.float64)
    p_e = np.asarray(p_e, dtype=np.float64)
    if not (0 <= gold_start < p_s.shape[-1]) or not (0 <= gold_end < p_e.shape[-1]):
        raise InvalidLabel(
            f"gold indices ({gold_start}, {gold_end}) outside length {p_s.shape[-1]}"
        )
    return float(
        -(np.log(max(p_s[gold_start], LOG_FLOOR)) + np.log(max(p_e[gold_end], LOG_FLOOR)))
    )


def kd_loss(teacher_z_s, teacher_z_e, student_z_s, student_z_e, tau: float) -> float:
    """Distillation loss for one instance: softened cross-entropies times tau^2."""
    if not tau > 0.0:
        raise InvalidParameter(f"temperature must be positive, got {tau}")
    p_s = softmax_temperature(teacher_z_s, tau)
    p_e = softmax_temperature(teacher_z_e, tau)
    q_s = softmax_temperature(student_z_s, tau)
    q_e = softmax_temperature(student_z_e, tau)
    return (cross_entropy(p_s, q_s) + cross_entropy(p_e, q_e)) * tau * tau


# ---------------------------------------------------------------------------
# Batch objectives and their logit gradients
# ---------------------------------------------------------------------------


def _log_softmax(z, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-softmax of ``z / tau`` over the last axis, and its exponential."""
    shifted = (z - z.max(axis=-1, keepdims=True)) / tau
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return logp, np.exp(logp)


def batch_nll(z_s, z_e, gold_start: np.ndarray, gold_end: np.ndarray):
    """Mean hard-label loss over a batch of (B, L) student logits, at
    temperature 1, and its gradients with respect to ``z_s`` and ``z_e``.

    Returns ``(value, dz_s, dz_e)``; each gradient row is
    ``(softmax(z) - one_hot(gold)) / B``.
    """
    rows = np.arange(len(gold_start))
    c = -1.0 / len(rows)
    value, grads = 0.0, []
    for z, gold in ((z_s, gold_start), (z_e, gold_end)):
        logp, p = _log_softmax(z, 1.0)
        value = value + logp[rows, gold]
        g = np.zeros_like(logp)
        g[rows, gold] = c
        grads.append(g - p * c)
    return -float(value.mean()), grads[0], grads[1]


def batch_kd(z_s, z_e, teacher_p_s: np.ndarray, teacher_p_e: np.ndarray, tau: float):
    """Mean distillation loss over a batch of (B, L) student logits, scaled
    by tau^2 after averaging, and its gradients with respect to ``z_s`` and
    ``z_e``.

    Returns ``(value, dz_s, dz_e)``; each gradient row is
    ``tau * (softmax(z / tau) - teacher_p) / B``.
    """
    if not tau > 0.0:
        raise InvalidParameter(f"temperature must be positive, got {tau}")
    c = tau * tau / len(z_s)
    value, grads = 0.0, []
    for z, target in ((z_s, teacher_p_s), (z_e, teacher_p_e)):
        logq, q = _log_softmax(z, tau)
        value = value - (logq * target).sum(axis=-1)
        g = -c * target
        grads.append((g - q * g.sum(axis=-1, keepdims=True)) / tau)
    return float(value.mean() * (tau * tau)), grads[0], grads[1]


# ---------------------------------------------------------------------------
# Logit store
# ---------------------------------------------------------------------------


def write_logit_store(path, teacher_id: str, max_len: int, records) -> None:
    """Write all records for one teacher, then append the random-access index."""
    records = list(records)
    header = {
        "format_version": STORE_VERSION,
        "teacher_id": teacher_id,
        "max_len": max_len,
        "count": len(records),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    index: dict[str, int] = {}
    with Path(path).open("wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for record in records:
            record.validate(max_len)
            if record.sample_id in index:
                raise InvalidConfig(f"duplicate sample id {record.sample_id!r} in store")
            index[record.sample_id] = fh.tell()
            sid = record.sample_id.encode("utf-8")
            fh.write(struct.pack("<I", len(sid)))
            fh.write(sid)
            fh.write(record.z_s.astype("<f8").tobytes())
            fh.write(record.z_e.astype("<f8").tobytes())
        index_pos = fh.tell()
        index_blob = json.dumps(index, sort_keys=True, separators=(",", ":")).encode("utf-8")
        fh.write(struct.pack("<I", len(index_blob)))
        fh.write(index_blob)
        fh.write(struct.pack("<Q", index_pos))


class LogitStore:
    """One teacher's precomputed logits, read and checked once when opened.

    Opening reads the file in one pass and checks the header, the index,
    every record's extent and sample id against the index, the absence of
    trailing bytes and that every value is finite; a defect raises
    ``InvalidConfig``. The logits are then held as (count, L) start and end
    arrays, ``get`` and ``take`` serve them from memory, and ``sha256`` is
    the digest of the bytes read.
    """

    def __init__(self, path):
        self.path = Path(path)
        data = self.path.read_bytes()
        self.sha256 = hashlib.sha256(data).hexdigest()
        trailer = len(data) - 8
        if trailer < 4:
            raise self._corrupt("shorter than its header and trailer")
        header_blob, records_start = self._prefixed(data, 0, trailer)
        (index_pos,) = struct.unpack_from("<Q", data, trailer)
        if not records_start <= index_pos <= trailer:
            raise self._corrupt(f"index offset {index_pos} out of range")
        index_blob, index_end = self._prefixed(data, index_pos, trailer)
        if index_end != trailer:
            raise self._corrupt(f"{trailer - index_end} stray bytes after the index")
        try:
            header = json.loads(header_blob.decode("utf-8"))
            index = json.loads(index_blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise self._corrupt(f"unreadable header or index ({exc})") from exc
        if not isinstance(header, dict) or header.get("format_version") != STORE_VERSION:
            raise InvalidConfig(f"unsupported logit store version in {path}")
        try:
            self.teacher_id: str = str(header["teacher_id"])
            self.max_len: int = int(header["max_len"])
            self.count: int = int(header["count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise self._corrupt(f"bad header field ({exc})") from exc
        if self.max_len < 1:
            raise self._corrupt(f"max_len {self.max_len}")
        if not isinstance(index, dict) or len(index) != self.count:
            raise InvalidConfig(f"logit store {path} index does not match its count")

        width = 16 * self.max_len
        self._rows: dict[str, int] = {}
        chunks = []
        pos = records_start
        for row in range(self.count):
            sid_blob, values_at = self._prefixed(data, pos, index_pos)
            sid = sid_blob.decode("utf-8", errors="replace")
            if index.get(sid) != pos:
                raise self._corrupt(f"record at offset {pos} has sample id {sid!r}, "
                                    "which the index does not map there")
            self._rows[sid] = row
            chunks.append(data[values_at : values_at + width])
            pos = values_at + width
        if pos != index_pos:
            raise self._corrupt(f"records end at offset {pos}, the index starts at {index_pos}")
        values = np.frombuffer(b"".join(chunks), dtype="<f8").reshape(self.count, 2, self.max_len)
        if not np.isfinite(values).all():
            raise self._corrupt("non-finite logits")
        self._z_s = values[:, 0]
        self._z_e = values[:, 1]

    def _corrupt(self, what: str) -> InvalidConfig:
        return InvalidConfig(f"logit store {self.path} is corrupt: {what}")

    def _prefixed(self, data: bytes, pos: int, end: int) -> tuple[bytes, int]:
        """The length-prefixed bytes at ``pos`` and the offset after them,
        which must not pass ``end``."""
        if pos + 4 > end:
            raise self._corrupt(f"truncated at offset {pos}")
        (size,) = struct.unpack_from("<I", data, pos)
        if pos + 4 + size > end:
            raise self._corrupt(f"truncated at offset {pos}")
        return data[pos + 4 : pos + 4 + size], pos + 4 + size

    def sample_ids(self) -> list[str]:
        return sorted(self._rows)

    def get(self, sample_id: str) -> LogitRecord:
        row = self._rows.get(sample_id)
        if row is None:
            raise IncompleteLogits(
                f"teacher {self.teacher_id!r} has no logits for sample {sample_id!r}"
            )
        return LogitRecord(sample_id=sample_id, teacher_id=self.teacher_id,
                           z_s=self._z_s[row].copy(), z_e=self._z_e[row].copy())

    def take(self, sample_ids) -> LogitRows:
        """The logits of ``sample_ids``, in that order."""
        sample_ids = list(sample_ids)
        missing = [sid for sid in sample_ids if sid not in self._rows]
        if missing:
            raise IncompleteLogits(
                f"{len(missing)} samples lack teacher logits (first: {missing[0]!r} "
                f"from teacher {self.teacher_id!r})"
            )
        rows = [self._rows[sid] for sid in sample_ids]
        return LogitRows(teacher_id=self.teacher_id, z_s=self._z_s[rows], z_e=self._z_e[rows])
