"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed from the benchmark's own files, around the public
functions of each module, at every binding where the pipeline looks the
name up: ``train.forward_batch`` and ``evaluation.forward_batch`` are two
bindings of one function, and both feed the metric ``model.forward_batch``.
Every target is resolved by name when the tracer is installed. A binding
that does not exist at the commit under test is reported as absent and
left alone, so the benchmark runs unchanged after a module drops a
function. ``numerics.Tensor`` and the tape primitives are never wrapped:
they run close to a million times per pipeline, and a wrapper there would
mostly measure itself.

Each wrapper records its call's duration and the part of it covered by
other wrapped calls, which gives every metric a self time. Totals are kept
per pass (one set-up pass or one timed iteration) so the run can report
medians over passes.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path


# Values derived from a wrapped call's arguments and result: summed per
# pass, except the ones in MAXIMA, which keep their largest value.
OBSERVED = ("train.clip_gradients.clip_hits", "train.clip_gradients.max_norm",
            "distill.store_read_bytes", "distill.write_logit_store.bytes")
MAXIMA = {"train.clip_gradients.max_norm"}


def _clip_observe(args, kwargs, norm):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    return {"train.clip_gradients.clip_hits": int(norm > max_norm > 0.0),
            "train.clip_gradients.max_norm": norm}


def _store_get_observe(args, kwargs, record):
    # length prefix, sample id, and the two float64 logit vectors
    read = 4 + len(record.sample_id.encode("utf-8")) + record.z_s.nbytes + record.z_e.nbytes
    return {"distill.store_read_bytes": read}


def _store_write_observe(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"distill.write_logit_store.bytes": Path(path).stat().st_size}


# (metric name, bindings "module:attribute path", observer of (args, kwargs, result))
TARGETS: list[tuple[str, tuple[str, ...], object]] = [
    ("numerics.backward", ("numerics:backward",), None),
    ("model.forward_batch",
     ("train:forward_batch", "evaluation:forward_batch", "model:forward_batch"), None),
    ("model.encode_dataset", ("train:encode_dataset", "model:encode_dataset"), None),
    ("model.save_model", ("train:save_model", "model:save_model"), None),
    ("model.load_model", ("cli:load_model", "model:load_model"), None),
    ("train.AdamW.step", ("train:AdamW.step",), None),
    ("train.clip_gradients", ("train:clip_gradients",), _clip_observe),
    ("distill.LogitStore.get", ("distill:LogitStore.get",), _store_get_observe),
    ("distill.impurity_weights", ("train:impurity_weights", "distill:impurity_weights"), None),
    ("distill.aggregate_logits", ("train:aggregate_logits", "distill:aggregate_logits"), None),
    ("distill.batch_nll", ("train:batch_nll", "distill:batch_nll"), None),
    ("distill.batch_kd", ("train:batch_kd", "distill:batch_kd"), None),
    ("distill.write_logit_store", ("train:write_logit_store", "distill:write_logit_store"),
     _store_write_observe),
    ("evaluation.predict", ("evaluation:predict",), None),
    ("evaluation.decode_span", ("evaluation:decode_span",), None),
    ("corpus.generate_synthetic_corpus", ("corpus:generate_synthetic_corpus",), None),
    ("corpus.read_samples", ("corpus:read_samples",), None),
    ("corpus.write_samples", ("corpus:write_samples",), None),
] + [
    (f"cli.op_{stage}", (f"cli:op_{stage}",), None)
    for stage in ("generate", "build", "train_teacher", "dump_logits", "distill", "evaluate")
]


def resolve(binding: str):
    """``(owner, attribute, current object)`` for a ``module:attr.path``
    binding in the ``branchdistill`` package, or None when it is absent."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(f"branchdistill.{module_name}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = vars(owner).get(name)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not callable(original):
        return None
    return owner, attr, original


@dataclass
class _Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Installs the wrappers, accumulates per-pass totals, restores on exit."""

    def __init__(self):
        self.installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._totals: dict[str, _Totals] = {}
        self._observed: dict[str, float] = dict.fromkeys(OBSERVED, 0.0)
        self.passes: dict[str, list[dict[str, float]]] = {"setup": [], "iteration": []}
        self._durations: dict[str, list[float]] = {name: [] for name, _, _ in TARGETS}

    # --- installation ---

    def __enter__(self) -> "Tracer":
        """Wrap every binding that exists; note the ones that do not."""
        self.absent = []
        for metric, bindings, observe in TARGETS:
            for binding in bindings:
                resolved = resolve(binding)
                if resolved is None:
                    self.absent.append(binding)
                    continue
                owner, attr, original = resolved
                setattr(owner, attr, self._wrap(metric, original, observe))
                self.installed.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        """Put every wrapped attribute back."""
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, metric: str, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]               # time covered by wrapped callees
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                totals = self._totals.setdefault(metric, _Totals())
                totals.calls += 1
                totals.seconds += elapsed
                totals.self_seconds += elapsed - frame[0]
                totals.durations.append(elapsed)
            if observe is not None:
                observed = self._observed
                for key, value in observe(args, kwargs, result).items():
                    observed[key] = max(observed[key], value) if key in MAXIMA \
                        else observed[key] + value
            return result

        return wrapper

    # --- per-pass accounting ---

    def end_pass(self, kind: str) -> None:
        """Close the current pass (``setup`` or ``iteration``) and start a new one."""
        values: dict[str, float] = {}
        for metric, _, _ in TARGETS:
            totals = self._totals.get(metric, _Totals())
            values[f"{metric}.calls"] = totals.calls
            values[f"{metric}.s"] = totals.seconds
            values[f"{metric}.self_s"] = totals.self_seconds
            if kind == "iteration":
                self._durations[metric].extend(totals.durations)
        values.update(self._observed)
        self.passes[kind].append(values)
        self._totals = {}
        self._observed = dict.fromkeys(OBSERVED, 0.0)

    def summary(self) -> dict[str, float]:
        """Per-layer values of one timed iteration, and of one set-up pass.

        Unprefixed values are medians over the traced iterations (maxima:
        the largest), and call-time percentiles pool their calls.
        ``setup.<metric>.s`` is the median time over the set-up passes.
        """
        iterations, setups = self.passes["iteration"], self.passes["setup"]
        out = {
            key: (max if key in MAXIMA else statistics.median)(p[key] for p in iterations)
            for key in iterations[0]
        }
        for metric, durations in self._durations.items():
            ordered = sorted(durations)
            out[f"{metric}.p50_ms"] = 1e3 * _quantile(ordered, 0.50)
            out[f"{metric}.p99_ms"] = 1e3 * _quantile(ordered, 0.99)
            out[f"setup.{metric}.s"] = statistics.median(p[f"{metric}.s"] for p in setups)
        return out


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of a sorted list; 0 for no samples."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]
