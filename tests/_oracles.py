"""Per-instance references the tests check the library against.

``nll_loss`` and ``kd_loss`` are the objectives written one instance and one
head's (L,) vector at a time, as plain sums over probabilities; the batch
forms ``distill.batch_nll`` and ``distill.batch_kd`` must agree with their
means. ``vocabulary_from_samples`` is the vocabulary of a sample list, for
tests that build a model without running ``build``, ``vocabulary_of_size``
one for tests that draw token ids directly, and ``flat_gradient`` is
``model.backward`` into a fresh buffer.
"""

import numpy as np

from branchdistill import distill as ds
from branchdistill import model as md


def cross_entropy(target, predicted) -> float:
    """-sum(target * ln(predicted)), predicted clamped below at LOG_FLOOR."""
    target = np.asarray(target, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if target.shape != predicted.shape:
        raise ValueError(f"target shape {target.shape} != predicted shape {predicted.shape}")
    return float(-(target * np.log(np.maximum(predicted, ds.LOG_FLOOR))).sum())


def nll_loss(p_s, p_e, gold_start: int, gold_end: int) -> float:
    """-(ln p_s[gold_start] + ln p_e[gold_end]) for one instance."""
    return float(-(np.log(max(p_s[gold_start], ds.LOG_FLOOR))
                   + np.log(max(p_e[gold_end], ds.LOG_FLOOR))))


def kd_loss(teacher_z_s, teacher_z_e, student_z_s, student_z_e, tau: float) -> float:
    """Distillation loss for one instance: softened cross-entropies times tau^2."""
    p_s = ds.softmax_temperature(teacher_z_s, tau)
    p_e = ds.softmax_temperature(teacher_z_e, tau)
    q_s = ds.softmax_temperature(student_z_s, tau)
    q_e = ds.softmax_temperature(student_z_e, tau)
    return (cross_entropy(p_s, q_s) + cross_entropy(p_e, q_e)) * tau * tau


def vocabulary_from_samples(samples) -> md.Vocabulary:
    return md.Vocabulary(t for s in samples for t in (*s.question_tokens, *s.passage_tokens))


def vocabulary_of_size(size: int) -> md.Vocabulary:
    """A vocabulary of ``size`` ids, at least ``FIRST_TOKEN_ID``, for a model
    whose tests encode no sample."""
    return md.Vocabulary(f"t{i}" for i in range(size - md.FIRST_TOKEN_ID))


def flat_gradient(model, cache, dz) -> np.ndarray:
    """``md.backward``'s gradient, written into a new flat vector."""
    grad = np.empty_like(model.flat)
    md.backward(model, cache, dz, md.param_views(model.config, model.vocab.size, grad))
    return grad
