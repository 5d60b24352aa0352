"""Optimizers and the training procedures.

Three procedures are built on one deterministic mini-batch loop:

* ``train_teacher``: hard-label training of one branch model,
* ``dump_teacher_logits``: forward-only pass writing a logit store,
* ``distill_student``: trains the multilingual student against precomputed
  teacher stores with the combined hard-label + distillation objective.
  The softened teacher targets never change during a run, so they are
  built once, before the first epoch, as one (N, L) start table and one
  (N, L) end table over the kept samples; each batch takes its rows.

A step's objective is ``lambda1 * nll + lambda2 * kd`` (``nll`` alone for
a teacher); its logit gradient is combined the same way and passed to
``model.backward``, which returns one flat gradient laid out like
``SpanModel.flat``. ``AdamW`` keeps its two moments as flat vectors of the
same layout and updates every parameter in one pass. A loss or pre-clip
gradient norm that is not finite stops the run with ``InvalidParameter``
before the optimizer step.

Both training procedures share one learning-rate rule (``learning_rate``):
``TrainConfig.lr`` is the peak, reached by a linear warmup over the first
``WARMUP_FRACTION`` of the run's steps, after which the rate decays linearly
to zero at the end of the last epoch.

Every run is a pure function of (dataset bytes, config, seed): shuffling
comes from one seeded generator, batches are reduced in a fixed order, and
repeated runs produce bit-identical checkpoints. A manifest records the
config snapshot, input digests, per-epoch loss curve, and skip counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .corpus import Sample
from .distill import (
    LogitRecord,
    LogitStore,
    aggregate_logits,
    batch_kd,
    batch_nll,
    fixed_weights,
    impurity_weights,
    write_logit_store,
    TeacherWeights,
)
from .errors import InvalidConfig, InvalidParameter, ShapeError, malformed_as_invalid
from .model import (
    FORWARD_BATCH_SIZE,
    ModelConfig,
    SpanModel,
    Vocabulary,
    backward,
    encode_dataset,
    forward_batch,
    init_model,
    param_views,
    save_model,
)
from .numerics import softmax_temperature

MANIFEST_VERSION = 2
WARMUP_FRACTION = 0.1


def learning_rate(step: int, total_steps: int, base: float) -> float:
    """Rate for the 0-based ``step`` of a ``total_steps``-step run peaking at ``base``.

    With T = ``total_steps`` and W = floor(``WARMUP_FRACTION`` * T) warmup
    steps, the rate is ``base * (step + 1) / W`` for step < W and
    ``base * (T - step) / (T - W)`` after: it reaches ``base`` at step W - 1
    and ``base / (T - W)`` at the last step. Runs shorter than
    1 / ``WARMUP_FRACTION`` steps have no warmup and only decay.
    """
    warmup = int(WARMUP_FRACTION * total_steps)
    if step < warmup:
        return base * (step + 1) / warmup
    return base * (total_steps - step) / (total_steps - warmup)


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Update of the flat parameter vector ``theta``: m and v track the first
    and second gradient moments elementwise, are bias-corrected, and the
    step is ``theta -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta)``.
    ``lr`` is read at every step; the training loop sets it from
    ``learning_rate`` before each update.
    """

    def __init__(self, size: int, lr: float = 1e-5,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.005):
        if lr < 0.0 or eps <= 0.0 or weight_decay < 0.0:
            raise InvalidConfig("bad optimizer hyperparameters")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise InvalidConfig(f"betas must be in [0, 1), got {betas}")
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        # scratch: a step allocates no full-size temporary, each of which page-faults
        self._a = np.empty(size)
        self._b = np.empty(size)

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        if theta.shape != self.m.shape or g.shape != self.m.shape:
            raise ShapeError(f"parameters {theta.shape} and gradient {g.shape} must both "
                             f"have the optimizer's shape {self.m.shape}")
        self.step_count += 1
        b1, b2 = self.betas
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        m, v, a, b = self.m, self.v, self._a, self._b
        # the update above, one rounding at a time in its order: the same bits
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=a)
        v *= b2
        v += np.multiply(np.multiply(g, 1.0 - b2, out=a), g, out=a)
        np.divide(m, c1, out=a)                     # m_hat
        np.sqrt(np.divide(v, c2, out=b), out=b)     # sqrt(v_hat)
        a /= np.add(b, self.eps, out=b)
        a += np.multiply(theta, self.weight_decay, out=b)
        theta -= np.multiply(a, self.lr, out=a)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``
    (no scaling when ``max_norm`` <= 0); returns the norm before scaling.

    The squares are summed per array, in the order of ``grads``: one sum
    over a flat gradient rounds differently, and that would change every
    checkpoint written after a clipped step.
    """
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 8
    seed: int = 0
    tau: float = 2.0
    lambda1: float = 0.5
    lambda2: float = 0.5
    strategy: str = "fixed"            # "fixed" or "impurity"
    impurity_sign: int = 1
    teacher_ids: tuple[str, ...] = ()
    lr: float = 5e-3
    weight_decay: float = 0.005
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    clip_norm: float | None = 5.0

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidConfig("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise InvalidConfig("seed must be non-negative")
        if not self.tau > 0.0:
            raise InvalidConfig(f"temperature must be positive, got {self.tau}")
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise InvalidConfig("loss weights must be non-negative")
        if self.strategy not in ("fixed", "impurity"):
            raise InvalidConfig(f"unknown selective strategy {self.strategy!r}")
        if self.impurity_sign not in (1, -1):
            raise InvalidConfig("impurity_sign must be +1 or -1")


@dataclass
class RunManifest:
    """Record of one training run, written next to its checkpoints.

    Each ``epoch_losses`` entry holds the epoch's mean ``nll``, ``kd`` and
    ``total`` loss over its batches, ``grad_norm_max``, the largest pre-clip
    global gradient norm of its steps, and ``clip_count``, the number of its
    steps whose gradients ``clip_gradients`` scaled down to
    ``TrainConfig.clip_norm``.

    ``format_version`` 2 marks runs trained under the warmup-plus-linear-decay
    rule of ``learning_rate``; version 1 runs used the constant rate
    ``TrainConfig.lr``.
    """

    run_name: str
    train_config: dict
    model_config: dict
    dataset_digest: str
    vocab_digest: str | None
    teacher_store_digests: dict[str, str] = field(default_factory=dict)
    epoch_losses: list[dict] = field(default_factory=list)
    skipped_samples: int = 0
    n_samples: int = 0
    checkpoints: list[str] = field(default_factory=list)
    final_checkpoint: str = ""
    format_version: int = MANIFEST_VERSION

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(asdict(self), sort_keys=True, separators=(",", ":"), allow_nan=False)
            + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path) -> "RunManifest":
        with malformed_as_invalid(path, "run manifest"):
            return cls(**json.loads(Path(path).read_text(encoding="utf-8")))


def _target_tables(samples: list[Sample], stores: dict[str, LogitStore],
                   cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Softened aggregated teacher targets for ``samples``, in that order,
    as (N, L) start and end tables."""
    keys = [s.key() for s in samples]
    rows = [stores[tid].take(keys) for tid in cfg.teacher_ids or sorted(stores)]
    if cfg.strategy == "fixed":
        weights = fixed_weights(len(rows))
    else:
        weights = TeacherWeights(
            start=impurity_weights([r.z_s for r in rows], cfg.impurity_sign),
            end=impurity_weights([r.z_e for r in rows], cfg.impurity_sign),
        )
    z_s, z_e = aggregate_logits(rows, weights)
    return softmax_temperature(z_s, cfg.tau), softmax_temperature(z_e, cfg.tau)


def _run_training(
    samples: list[Sample],
    vocab: Vocabulary,
    model_config: ModelConfig,
    cfg: TrainConfig,
    run_name: str,
    out_dir=None,
    stores: dict[str, LogitStore] | None = None,
    dataset_digest: str = "",
    vocab_digest: str | None = None,
) -> tuple[SpanModel, RunManifest]:
    cfg.validate()
    if not samples:
        raise InvalidConfig("training dataset is empty")
    encoded, kept, skipped = encode_dataset(samples, vocab, model_config.max_len)
    if not kept:
        raise InvalidConfig("every training sample fell outside the input window")
    if stores is not None:
        for tid, store in stores.items():
            if store.max_len != model_config.max_len:
                raise ShapeError(
                    f"store for {tid!r} has max_len {store.max_len}, model expects "
                    f"{model_config.max_len}"
                )
        targets_s, targets_e = _target_tables(kept, stores, cfg)

    model = init_model(model_config, cfg.seed)
    optimizer = AdamW(model.flat.size, lr=cfg.lr, betas=cfg.betas, eps=cfg.eps,
                      weight_decay=cfg.weight_decay)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x736866]))

    manifest = RunManifest(
        run_name=run_name,
        train_config=asdict(cfg),
        model_config=asdict(model_config),
        dataset_digest=dataset_digest,
        vocab_digest=vocab_digest,
        skipped_samples=skipped,
        n_samples=len(kept),
    )

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    n = len(kept)
    total_steps = cfg.epochs * -(-n // cfg.batch_size)
    max_norm = cfg.clip_norm or 0.0
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        sums = {"nll": 0.0, "kd": 0.0, "total": 0.0}
        n_batches = 0
        grad_norm_max = 0.0
        clip_count = 0
        for lo in range(0, n, cfg.batch_size):
            batch_idx = order[lo : lo + cfg.batch_size]
            batch_enc = [encoded[i] for i in batch_idx]
            gold_s = np.array([e.gold_start for e in batch_enc])
            gold_e = np.array([e.gold_end for e in batch_enc])

            result = forward_batch(model, batch_enc)
            nll, dz_s, dz_e = batch_nll(result.z_s, result.z_e, gold_s, gold_e)
            if stores is not None:
                kd, kd_s, kd_e = batch_kd(result.z_s, result.z_e, targets_s[batch_idx],
                                          targets_e[batch_idx], cfg.tau)
                loss = cfg.lambda1 * nll + cfg.lambda2 * kd
                dz_s = cfg.lambda1 * dz_s + cfg.lambda2 * kd_s
                dz_e = cfg.lambda1 * dz_e + cfg.lambda2 * kd_e
            else:
                # hard-label training: plain likelihood objective
                kd = 0.0
                loss = nll

            grad = backward(model, result, dz_s, dz_e)
            norm = clip_gradients(param_views(model_config, grad), max_norm)
            if not (np.isfinite(loss) and np.isfinite(norm)):
                raise InvalidParameter(f"run {run_name!r}, epoch {epoch}, step "
                                       f"{optimizer.step_count + 1} of {total_steps}: loss "
                                       f"{loss} and gradient norm {norm} must be finite")
            grad_norm_max = max(grad_norm_max, norm)
            clip_count += norm > max_norm > 0.0
            optimizer.lr = learning_rate(optimizer.step_count, total_steps, cfg.lr)
            optimizer.step(model.flat, grad)

            sums["nll"] += nll
            sums["kd"] += kd
            sums["total"] += loss
            n_batches += 1

        manifest.epoch_losses.append({
            "epoch": epoch,
            "nll": sums["nll"] / n_batches,
            "kd": sums["kd"] / n_batches,
            "total": sums["total"] / n_batches,
            "grad_norm_max": grad_norm_max,
            "clip_count": clip_count,
        })
        if out_path is not None:
            name = f"epoch_{epoch:03d}.ckpt"
            save_model(model, out_path / name)
            manifest.checkpoints.append(name)

    if out_path is not None:
        save_model(model, out_path / "final.ckpt")
        manifest.final_checkpoint = "final.ckpt"
        manifest.save(out_path / "manifest.json")
    return model, manifest


def train_teacher(
    samples: list[Sample],
    vocab: Vocabulary,
    model_config: ModelConfig,
    cfg: TrainConfig,
    run_name: str = "teacher",
    out_dir=None,
    dataset_digest: str = "",
    vocab_digest: str | None = None,
) -> tuple[SpanModel, RunManifest]:
    """Hard-label training of one branch model."""
    return _run_training(
        samples, vocab, model_config, cfg, run_name,
        out_dir=out_dir, stores=None,
        dataset_digest=dataset_digest, vocab_digest=vocab_digest,
    )


def distill_student(
    stores: dict[str, LogitStore],
    samples: list[Sample],
    vocab: Vocabulary,
    model_config: ModelConfig,
    cfg: TrainConfig,
    run_name: str = "student",
    out_dir=None,
    dataset_digest: str = "",
    vocab_digest: str | None = None,
) -> tuple[SpanModel, RunManifest]:
    """Train the multilingual student against precomputed teacher logits."""
    if not stores:
        raise InvalidConfig("distillation requires at least one teacher store")
    teacher_ids = cfg.teacher_ids or tuple(sorted(stores))
    unknown = [tid for tid in teacher_ids if tid not in stores]
    if unknown:
        raise InvalidConfig(f"teacher ids {unknown} have no store")
    model, manifest = _run_training(
        samples, vocab, model_config, cfg, run_name,
        out_dir=out_dir, stores=stores,
        dataset_digest=dataset_digest, vocab_digest=vocab_digest,
    )
    manifest.teacher_store_digests = {tid: stores[tid].sha256 for tid in teacher_ids}
    if out_dir is not None:
        manifest.save(Path(out_dir) / "manifest.json")
    return model, manifest


def dump_teacher_logits(
    model: SpanModel,
    samples: list[Sample],
    vocab: Vocabulary,
    path,
    teacher_id: str,
) -> tuple[int, int]:
    """Forward every encodable sample and write its logits to a store.

    Returns (records written, samples skipped as out-of-window).
    """
    encoded, kept, skipped = encode_dataset(samples, vocab, model.config.max_len)
    records = []
    for lo in range(0, len(kept), FORWARD_BATCH_SIZE):
        result = forward_batch(model, encoded[lo : lo + FORWARD_BATCH_SIZE])
        for row, sample in enumerate(kept[lo : lo + FORWARD_BATCH_SIZE]):
            records.append(LogitRecord(
                sample_id=sample.key(),
                teacher_id=teacher_id,
                z_s=result.z_s[row].copy(),
                z_e=result.z_e[row].copy(),
            ))
    write_logit_store(path, teacher_id, model.config.max_len, records)
    return len(records), skipped
