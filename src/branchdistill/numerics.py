"""Float64 numerical primitives with analytic backward passes.

Two layers live here. The plain array functions (``softmax_temperature``,
``entropy``, ``cross_entropy``) are used wherever no gradient is needed:
teacher-side target construction, impurity weighting, metric reporting.
The ``Tensor`` primitives form a small reverse-mode tape used by the
encoder and the training objectives; every primitive carries a hand-written
backward pass, and the composed gradients are checked against central
finite differences in the test suite.

All arrays are 64-bit floats. Logs are natural logs. ``log`` arguments are
clamped below at ``LOG_FLOOR`` in the plain functions; the differentiable
path goes through ``log_softmax_last`` instead, which never takes a log of
zero.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter, ShapeError

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


def cross_entropy(target, predicted) -> float:
    """-sum(target * ln(predicted)), predicted clamped below at LOG_FLOOR."""
    target = _as_f64(target)
    predicted = _as_f64(predicted)
    if target.shape != predicted.shape:
        raise ShapeError(
            f"target shape {target.shape} != predicted shape {predicted.shape}"
        )
    _require_distribution(target)
    _require_distribution(predicted)
    return float(-(target * np.log(np.maximum(predicted, LOG_FLOOR))).sum())


# ---------------------------------------------------------------------------
# Reverse-mode tape
# ---------------------------------------------------------------------------


class Tensor:
    """Node of the computation graph: a float64 array plus backward closure.

    The graph is owned by the output tensors of each forward pass; there is
    no global tape, so independent forwards are safe to run concurrently.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward_fn=None):
        self.data = _as_f64(data)
        if __debug__:
            assert np.all(np.isfinite(self.data)), "non-finite tensor value"
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in parents
        )
        self._parents = tuple(parents)
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(out: Tensor, seed=None) -> None:
    """Propagate gradients from ``out`` to every reachable leaf."""
    if seed is None:
        seed = np.ones_like(out.data)
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    out.grad = _as_f64(seed).copy()
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def back(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward_fn=back)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def back(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward_fn=back)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul mismatch: {a.data.shape} @ {b.data.shape}")
    out_data = np.matmul(a.data, b.data)

    def back(g):
        ga = np.matmul(g, b.data.swapaxes(-1, -2))
        gb = np.matmul(a.data.swapaxes(-1, -2), g)
        _accumulate(a, _unbroadcast(ga, a.data.shape))
        _accumulate(b, _unbroadcast(gb, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward_fn=back)


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0.0
    out_data = np.where(mask, x.data, 0.0)

    def back(g):
        _accumulate(x, g * mask)

    return Tensor(out_data, parents=(x,), backward_fn=back)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.reshape(shape)

    def back(g):
        _accumulate(x, g.reshape(x.data.shape))

    return Tensor(out_data, parents=(x,), backward_fn=back)


def swap_last_axes(x) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.swapaxes(-1, -2)

    def back(g):
        _accumulate(x, g.swapaxes(-1, -2))

    return Tensor(out_data, parents=(x,), backward_fn=back)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]``; backward scatter-adds into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    out_data = table.data[ids]

    def back(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    return Tensor(out_data, parents=(table,), backward_fn=back)


def pick_last(x, indices: np.ndarray) -> Tensor:
    """Select one entry along the last axis per leading row: ``x[i, idx[i]]``."""
    x = as_tensor(x)
    indices = np.asarray(indices)
    if x.data.ndim != 2 or indices.shape != (x.data.shape[0],):
        raise ShapeError(f"pick_last expects (B, L) and (B,), got {x.data.shape} and {indices.shape}")
    rows = np.arange(x.data.shape[0])
    out_data = x.data[rows, indices]

    def back(g):
        if not x.requires_grad:
            return
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, (rows, indices), g)

    return Tensor(out_data, parents=(x,), backward_fn=back)


def masked_fill(x, keep_mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where ``keep_mask`` is False by ``value`` (no gradient there)."""
    x = as_tensor(x)
    keep = np.asarray(keep_mask, dtype=bool)
    out_data = np.where(keep, x.data, value)

    def back(g):
        _accumulate(x, g * keep)

    return Tensor(out_data, parents=(x,), backward_fn=back)


def softmax_last(x, tau: float = 1.0) -> Tensor:
    """Differentiable softmax over the last axis (used by attention)."""
    if not tau > 0.0:
        raise InvalidParameter(f"temperature must be positive, got {tau}")
    x = as_tensor(x)
    shifted = (x.data - x.data.max(axis=-1, keepdims=True)) / tau
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        _accumulate(x, p * (g - inner) / tau)

    return Tensor(p, parents=(x,), backward_fn=back)


def log_softmax_last(x, tau: float = 1.0) -> Tensor:
    """Differentiable log-softmax of ``x / tau`` over the last axis."""
    if not tau > 0.0:
        raise InvalidParameter(f"temperature must be positive, got {tau}")
    x = as_tensor(x)
    shifted = (x.data - x.data.max(axis=-1, keepdims=True)) / tau
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    p = np.exp(logp)

    def back(g):
        gsum = g.sum(axis=-1, keepdims=True)
        _accumulate(x, (g - p * gsum) / tau)

    return Tensor(logp, parents=(x,), backward_fn=back)


def layer_norm(x, gain, offset, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and offset."""
    x, gain, offset = as_tensor(x), as_tensor(gain), as_tensor(offset)
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    out_data = xhat * gain.data + offset.data

    def back(g):
        _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape))
        _accumulate(offset, _unbroadcast(g, offset.data.shape))
        gx = g * gain.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, inv * (gx - m1 - xhat * m2))

    return Tensor(out_data, parents=(x, gain, offset), backward_fn=back)


def sum_last(x) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.sum(axis=-1)

    def back(g):
        _accumulate(x, np.broadcast_to(np.expand_dims(g, -1), x.data.shape).copy())

    return Tensor(out_data, parents=(x,), backward_fn=back)


def mean_all(x) -> Tensor:
    x = as_tensor(x)
    n = x.data.size
    out_data = np.asarray(x.data.mean())

    def back(g):
        _accumulate(x, np.full_like(x.data, float(g) / n))

    return Tensor(out_data, parents=(x,), backward_fn=back)


def sum_all(x) -> Tensor:
    x = as_tensor(x)
    out_data = np.asarray(x.data.sum())

    def back(g):
        _accumulate(x, np.full_like(x.data, float(g)))

    return Tensor(out_data, parents=(x,), backward_fn=back)
