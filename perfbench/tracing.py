"""Spans around patchmix's public functions, recorded from outside the package.

A traced run reassigns module attributes (``trainer.train_step``,
``encoder.forward_backbone``, every autodiff primitive, ...) to thin
wrappers that record one span per call: name, start, end, parent span and
the id of the step or pass it belongs to.  The package looks these
functions up through their module at call time, so the wrappers see every
call.  A refactor that binds one by name instead (``from .autodiff import
matmul``) would bypass its wrapper; ``tests/test_perfbench.py`` runs every
workload traced and fails when a predicted call goes missing.

Spans stay in memory and are summarised when the run ends.  A span's self
time is its duration minus the durations of its direct children; calls
are strictly nested in this single-threaded program, so children never
overlap.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from patchmix import (
    augment,
    autodiff,
    datasets,
    encoder,
    evaluation,
    mixing,
    objectives,
    patch_ops,
    trainer,
)

# autodiff primitives that the encoder, the heads and the losses call
PRIMITIVES = (
    "matmul", "add", "sub", "mul", "div", "neg", "scale", "sqrt", "relu",
    "gelu", "softmax", "log_softmax", "layer_norm", "mean", "asum",
    "transpose", "reshape", "concat", "broadcast_to", "take", "gather",
    "l2_normalize",
)


class Patcher:
    """Reassigns attributes and puts the originals back, newest first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _taped(args) -> str:
    """``.taped`` when the parameter tensors (second argument) are on a tape."""
    tv = args[1]
    first = next(iter(tv.values()))
    return ".taped" if first.tape is not None else ".untaped"


def _out_nbytes(out, args) -> int:
    return out.data.nbytes


def _shapes(args) -> tuple:
    return tuple(
        tuple(a.shape) for a in args if isinstance(a, (autodiff.Tensor, np.ndarray))
    )


# the wrapped functions, by owner; each span is named "<owner>.<function>"
WRAPPED = [
    ("datasets", datasets, ("synth_blobs",)),
    ("augment", augment, ("augment_view",)),
    ("patch_ops", patch_ops, ("patchify",)),
    ("mixing", mixing, ("plan_mix", "apply_mix")),
    ("encoder", encoder, (
        "init_encoder", "forward_backbone", "forward_heads", "forward_project",
        "ema_update", "write_checkpoint",
    )),
    ("objectives", objectives, ("loss_total",)),
    ("autodiff.Tape", autodiff.Tape, ("backward",)),
    ("trainer", trainer, (
        "init_state", "train_step", "optimizer_update", "save_state", "pretrain",
    )),
    ("evaluation", evaluation, ("build_bank", "extract_features", "knn_classify")),
    ("autodiff", autodiff, PRIMITIVES),
]

# spans split by whether the parameters are on a tape
SPLIT_TAPED = {"encoder.forward_backbone", "encoder.forward_project"}

# bytes a call computes: its output, or the payload it writes
NBYTES = {
    "mixing.apply_mix": lambda out, args: out.patches.patches.nbytes,
    "encoder.write_checkpoint": lambda out, args: sum(
        np.asarray(b).nbytes for b in args[2].values()
    ),
}


def _targets():
    """(owner, attribute, span name) of every wrapped function."""
    return [
        (owner, attr, f"{prefix}.{attr}")
        for prefix, owner, attrs in WRAPPED
        for attr in attrs
    ]


class Tracer:
    """Records spans while installed; ``unit`` tags the current step or pass."""

    def __init__(self):
        # (name, start, end, parent index, unit, bytes or None, shapes or None)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.unit = "setup"
        self._steps = 0

    def install(self, patcher: Patcher) -> None:
        for owner, attr, name in _targets():
            patcher.wrap(owner, attr, lambda fn, name=name: self._wrapper(fn, name))

    def _wrapper(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_step = name == "trainer.train_step"
        suffix = _taped if name in SPLIT_TAPED else None
        is_op = name.removeprefix("autodiff.") in PRIMITIVES
        nbytes = _out_nbytes if is_op else NBYTES.get(name)

        def wrapper(*args, **kwargs):
            label = name + suffix(args) if suffix else name
            outer_unit = self.unit
            if is_step:
                self._steps += 1
                self.unit = f"step{self._steps}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, self.unit, None, None)
                self.unit = outer_unit
            if nbytes is not None:
                spans[index] = spans[index][:5] + (
                    nbytes(out, args), _shapes(args) if is_op else None
                )
            return out

        return wrapper

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total ms, self ms and bytes."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (label, start, end, _parent, _unit, nbytes, _op_shapes) in enumerate(
            self.spans
        ):
            row = out.setdefault(
                label, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "bytes": 0}
            )
            row["calls"] += 1
            row["ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child[i]) * 1e3
            row["bytes"] += nbytes or 0
        return out

    def op_shape_table(self) -> list[dict]:
        """Autodiff primitives grouped by (op, operand shapes), slowest first."""
        table: dict[tuple, dict] = {}
        for label, start, end, _p, _u, nbytes, shapes in self.spans:
            if shapes is None:
                continue
            row = table.setdefault(
                (label, shapes), {"calls": 0, "ms": 0.0, "out_bytes": 0}
            )
            row["calls"] += 1
            row["ms"] += (end - start) * 1e3
            row["out_bytes"] += nbytes
        rows = [
            {"op": op, "shapes": [list(s) for s in shapes], **row}
            for (op, shapes), row in table.items()
        ]
        return sorted(rows, key=lambda r: -r["ms"])


# per-layer metrics, named "<span>.<field>": calls, ms (inclusive), self_ms,
# bytes or out_bytes.  All are per traced step (per pass on knn-eval)
# except PER_CALL, which are per traced pretrain call (or pass).
PER_LAYER = [
    "augment.augment_view.calls",
    "augment.augment_view.ms",
    "patch_ops.patchify.ms",
    "mixing.plan_mix.ms",
    "mixing.apply_mix.ms",
    "mixing.apply_mix.bytes",
    "encoder.forward_backbone.taped.calls",
    "encoder.forward_backbone.taped.ms",
    "encoder.forward_backbone.untaped.calls",
    "encoder.forward_backbone.untaped.ms",
    "encoder.forward_heads.ms",
    "encoder.forward_project.untaped.ms",
    "autodiff.Tape.backward.ms",
    "objectives.loss_total.ms",
    "trainer.optimizer_update.ms",
    "encoder.ema_update.ms",
    "trainer.train_step.self_ms",
    "trainer.pretrain.self_ms",
    "evaluation.build_bank.self_ms",
    "evaluation.extract_features.self_ms",
    "evaluation.knn_classify.ms",
    "datasets.synth_blobs.ms",
    "encoder.init_encoder.ms",
    "trainer.init_state.ms",
    "trainer.save_state.ms",
    "encoder.write_checkpoint.ms",
    "encoder.write_checkpoint.bytes",
] + [
    f"autodiff.{op}.{field}"
    for op in PRIMITIVES
    for field in ("calls", "ms", "out_bytes")
]

PER_CALL = {
    "datasets.synth_blobs.ms",
    "encoder.init_encoder.ms",
    "trainer.init_state.ms",
    "trainer.save_state.ms",
    "encoder.write_checkpoint.ms",
    "encoder.write_checkpoint.bytes",
}

OVERHEAD_METRIC = "trace.overhead_pct"


def layer_unit(metric: str) -> str:
    """The unit a per-layer metric is reported in."""
    if metric == OVERHEAD_METRIC:
        return "%"
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("bytes"):
        return "bytes"
    return "ms"


def per_layer_metrics(summary: dict, units: int, calls: int) -> dict[str, float]:
    """Per-layer figures per step (or pass) and per call; 0 where unused."""
    out = {}
    for metric in PER_LAYER:
        span, field = metric.rsplit(".", 1)
        total = summary.get(span, {}).get("bytes" if "bytes" in field else field, 0)
        out[metric] = total / (calls if metric in PER_CALL else units)
    return out
