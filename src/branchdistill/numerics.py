"""Float64 numerical primitives for targets, impurity weights and metrics.

``softmax_temperature`` and ``entropy`` work on plain arrays and carry no
gradient: teacher-side target construction, impurity weighting and metric
reporting. The model's and the objectives' gradients are written out by
hand in ``model`` and ``distill``.

All arrays are 64-bit floats. Logs are natural logs. ``log`` arguments are
clamped below at ``LOG_FLOOR``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter

LOG_FLOOR = 1e-12


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _require_finite(z: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(z)):
        raise InvalidParameter(f"{what} must be finite")


def _require_distribution(p: np.ndarray) -> None:
    if np.any(p < -1e-12):
        raise InvalidParameter("distribution has negative entries")
    s = p.sum(axis=-1)
    if np.any(np.abs(s - 1.0) > 1e-6):
        raise InvalidParameter("distribution entries do not sum to 1")


def softmax_temperature(z, tau: float = 1.0) -> np.ndarray:
    """Softmax of ``z / tau`` along the last axis, max-subtracted for stability."""
    if not tau > 0.0:
        raise InvalidParameter(f"temperature must be positive, got {tau}")
    z = _as_f64(z)
    _require_finite(z, "logits")
    shifted = (z - z.max(axis=-1, keepdims=True)) / tau
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    if __debug__:
        assert np.all(np.isfinite(p))
    return p


def entropy(p) -> float | np.ndarray:
    """Shannon entropy in nats along the last axis, with 0 * ln 0 = 0.

    A float for one distribution, an array of shape ``p.shape[:-1]`` for a
    batch of them.
    """
    p = _as_f64(p)
    _require_distribution(p)
    terms = np.where(p > 0.0, p * np.log(np.maximum(p, LOG_FLOOR)), 0.0)
    return -terms.sum(axis=-1)
