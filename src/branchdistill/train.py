"""Optimizers and the training procedures.

The dataset is encoded once, as one ``Encoded`` record of row arrays.
Two procedures work over it:

* ``train``: one deterministic mini-batch loop, each step taking the rows
  ``encoded[batch_idx]`` and their (B, 2) gold spans. Without logit stores
  it is the hard-label training of one branch teacher; with them it trains
  the multilingual student with the combined hard-label + distillation
  objective. The softened teacher targets never change during a run, so
  they are built once, before the first epoch, as one (N, 2, L) block over
  the kept samples; each batch takes its rows.
* ``dump_teacher_logits``: one (N, 2, L) block of logits from
  ``forward_logits``, written to a logit store in one call.

Logits, teacher targets and logit gradients are all (..., 2, L) blocks,
start head first, as ``model`` defines them. A step's objective is
``lambda1 * nll + lambda2 * kd`` (``nll`` alone for a teacher); its
(B, 2, L) logit gradient is combined the same way and passed to
``model.backward``, which writes it through the per-parameter views of
one flat gradient laid out like ``SpanModel.flat``; the run allocates that
buffer and its views once. ``AdamW`` keeps its two moments as flat vectors
of the same layout and updates every parameter in one pass. A loss or
pre-clip gradient norm that is not finite stops the run with
``InvalidConfig`` before the optimizer step.

Teachers and students share one learning-rate rule (``learning_rate``):
``TrainConfig.lr`` is the peak, reached by a linear warmup over the first
``WARMUP_FRACTION`` of the run's steps, after which the rate decays linearly
to zero at the end of the last epoch.

Every run is a pure function of (dataset bytes, config, seed): shuffling
comes from one seeded generator, batches are reduced in a fixed order, and
repeated runs produce bit-identical checkpoints. ``TrainConfig`` holds the
settings of every run and ``DistillConfig`` those of a student's objective
alone, so no teacher depends on a distillation choice. A manifest records
``run_key``'s fields, which identify a run, the loss curve and skip counts.

Each setting and artifact is checked once, where it enters: by the CLI's
config parser, the construction of ``TrainConfig``, ``DistillConfig`` and
``ModelConfig``, ``train``'s dataset and store checks and ``LogitStore``,
all before a run writes anything. ``AdamW`` and the numeric core in
``distill`` trust them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .corpus import Sample, write_json
from .distill import (
    LogitStore,
    aggregate_logits,
    batch_kd,
    batch_nll,
    fixed_weights,
    impurity_weights,
    softmax_temperature,
    write_logit_store,
)
from .errors import InvalidConfig
from .model import (
    ModelConfig,
    SpanModel,
    Vocabulary,
    backward,
    encode_dataset,
    forward_batch,
    forward_logits,
    init_model,
    param_views,
    save_model,
)

MANIFEST_VERSION = 4
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
    step is ``theta -= lr * (m_hat / (sqrt(v_hat) + EPS) + weight_decay * theta)``.
    ``lr`` is read at every step; the training loop sets it from
    ``learning_rate`` before each update. ``BETAS`` and ``EPS`` are fixed.
    """

    BETAS, EPS = (0.9, 0.999), 1e-8

    def __init__(self, size: int, *, lr: float, weight_decay: float):
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        # scratch: a step allocates no full-size temporary, each of which page-faults
        self._a = np.empty(size)
        self._b = np.empty(size)

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        self.step_count += 1
        b1, b2 = self.BETAS
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
        a /= np.add(b, self.EPS, out=b)
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
    """The settings of every run, teacher or student."""

    epochs: int = 10
    batch_size: int = 8
    seed: int = 0
    lr: float = 5e-3
    weight_decay: float = 0.005
    clip_norm: float = 5.0            # <= 0 disables clipping

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidConfig("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be non-negative, got {self.seed}")
        if not (self.lr >= 0.0 and self.weight_decay >= 0.0):
            raise InvalidConfig(f"learning rate {self.lr} and weight decay "
                                f"{self.weight_decay} must be non-negative")


@dataclass(frozen=True)
class DistillConfig:
    """The settings of a student's objective alone, which no teacher reads."""

    tau: float = 2.0
    lambda1: float = 0.5
    lambda2: float = 0.5
    strategy: str = "fixed"            # "fixed" or "impurity"
    impurity_sign: int = 1

    def __post_init__(self):
        if not self.tau > 0.0:
            raise InvalidConfig(f"temperature tau must be positive, got {self.tau}")
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise InvalidConfig("loss weights must be non-negative")
        if self.strategy not in ("fixed", "impurity"):
            raise InvalidConfig(f"unknown selective strategy {self.strategy!r}")
        if self.impurity_sign not in (1, -1):
            raise InvalidConfig("impurity_sign must be +1 or -1")


@dataclass
class RunManifest:
    """Record of one training run, written next to its checkpoint.

    Each ``epoch_losses`` entry holds the epoch's mean ``nll``, ``kd`` and
    ``total`` loss over its batches, ``grad_norm_max``, the largest pre-clip
    global gradient norm of its steps, and ``clip_count``, the number of its
    steps whose gradients ``clip_gradients`` scaled down to
    ``TrainConfig.clip_norm``.

    ``format_version`` 4 marks runs whose distillation settings sit in
    ``distill_config`` (None for a teacher), not ``train_config``; version 3
    runs were the first with one checkpoint, ``final.ckpt``, version 2 runs
    kept one per epoch too, and version 1 runs used a constant rate.
    """

    run_name: str
    format_version: int
    train_config: dict
    distill_config: dict | None
    model_config: dict
    dataset_digest: str
    vocab_digest: str | None
    teacher_store_digests: dict[str, str]
    epoch_losses: list[dict] = field(default_factory=list)
    skipped_samples: int = 0
    n_samples: int = 0


def run_key(cfg: TrainConfig, model_config: ModelConfig, dataset_digest: str,
            vocab_digest: str | None, stores: dict[str, LogitStore] | None = None,
            distill: DistillConfig | None = None) -> dict:
    """The ``RunManifest`` fields that identify a run: its format, the
    settings that train it and the digests of what it reads; a teacher
    (``stores`` None) has no distillation settings or stores."""
    return {
        "format_version": MANIFEST_VERSION,
        "train_config": asdict(cfg),
        "distill_config": None if stores is None else asdict(distill),
        "model_config": asdict(model_config),
        "dataset_digest": dataset_digest,
        "vocab_digest": vocab_digest,
        "teacher_store_digests": {tid: stores[tid].sha256 for tid in sorted(stores or {})},
    }


def _target_tables(samples: list[Sample], stores: dict[str, LogitStore],
                   distill: DistillConfig) -> np.ndarray:
    """Softened aggregated teacher targets for ``samples``, in that order,
    as one (N, 2, L) block; the teachers are taken in sorted order."""
    keys = [s.key() for s in samples]
    blocks = [stores[tid].take(keys) for tid in sorted(stores)]
    if distill.strategy == "fixed":
        weights = fixed_weights(len(blocks))
    else:
        # one head at a time: over the whole block the temporaries double in size
        weights = np.stack([impurity_weights([b[:, i] for b in blocks], distill.impurity_sign)
                            for i in range(2)], axis=1)
    return softmax_temperature(aggregate_logits(blocks, weights), distill.tau)


def train(
    samples: list[Sample],
    vocab: Vocabulary,
    model_config: ModelConfig,
    cfg: TrainConfig,
    run_name: str,
    out_dir=None,
    stores: dict[str, LogitStore] | None = None,
    distill: DistillConfig | None = None,
    dataset_digest: str = "",
    vocab_digest: str | None = None,
) -> tuple[SpanModel, RunManifest]:
    """Train one model on ``samples``: a branch teacher when ``stores`` is
    None, else the student, distilled from the stores under ``distill``."""
    if not samples:
        raise InvalidConfig("training dataset is empty")
    for tid, store in (stores or {}).items():
        if store.max_len != model_config.max_len:
            raise InvalidConfig(f"store for {tid!r} has max_len {store.max_len}, model expects "
                                f"{model_config.max_len}")
    encoded, kept, skipped = encode_dataset(samples, vocab, model_config.max_len)
    if not kept:
        raise InvalidConfig("every training sample fell outside the input window")
    if stores is not None:
        targets = _target_tables(kept, stores, distill)

    model = init_model(model_config, cfg.seed, vocab)
    optimizer = AdamW(model.flat.size, lr=cfg.lr, weight_decay=cfg.weight_decay)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x736866]))

    manifest = RunManifest(run_name=run_name, skipped_samples=skipped, n_samples=len(kept),
                           **run_key(cfg, model_config, dataset_digest, vocab_digest, stores,
                                     distill))

    n = len(kept)
    total_steps = cfg.epochs * -(-n // cfg.batch_size)
    # one gradient buffer per run: a fresh vector per step faults its pages in again
    grad = np.empty_like(model.flat)
    grad_views = param_views(model_config, vocab.size, grad)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        sums = {"nll": 0.0, "kd": 0.0, "total": 0.0}
        n_batches = 0
        grad_norm_max = 0.0
        clip_count = 0
        for lo in range(0, n, cfg.batch_size):
            batch_idx = order[lo : lo + cfg.batch_size]
            batch = encoded[batch_idx]
            result = forward_batch(model, batch)
            nll, dz = batch_nll(result.z, batch.gold)
            if stores is not None:
                kd, kd_dz = batch_kd(result.z, targets[batch_idx], distill.tau)
                loss = distill.lambda1 * nll + distill.lambda2 * kd
                dz = distill.lambda1 * dz + distill.lambda2 * kd_dz
            else:
                # hard-label training: plain likelihood objective
                kd = 0.0
                loss = nll

            backward(model, result, dz, grad_views)
            norm = clip_gradients(grad_views, cfg.clip_norm)
            if not (np.isfinite(loss) and np.isfinite(norm)):
                raise InvalidConfig(f"run {run_name!r}, epoch {epoch}, step "
                                    f"{optimizer.step_count + 1} of {total_steps}: loss "
                                    f"{loss} and gradient norm {norm} must be finite")
            grad_norm_max = max(grad_norm_max, norm)
            clip_count += norm > cfg.clip_norm > 0.0
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

    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        save_model(model, out_path / "final.ckpt")
        write_json(out_path / "manifest.json", asdict(manifest))
    return model, manifest


def dump_teacher_logits(model: SpanModel, samples: list[Sample], path,
                        teacher_id: str) -> tuple[int, int]:
    """Forward every sample the model's window holds, encoded with the
    model's vocabulary, and write its logits to a store.

    Returns (records written, samples skipped as out-of-window).
    """
    encoded, kept, skipped = encode_dataset(samples, model.vocab, model.config.max_len)
    write_logit_store(path, teacher_id, [s.key() for s in kept], forward_logits(model, encoded))
    return len(kept), skipped
