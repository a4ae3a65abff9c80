"""Self-checks of the benchmark: tracer coverage, metric names, verdicts.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from patchmix import encoder  # noqa: E402

# the functions each workload exercises, as the per-layer predictions in
# README.md state them; everything else must see no call at all
BACKBONE_OPS = {
    f"autodiff.{op}"
    for op in (
        "matmul", "add", "broadcast_to", "concat", "layer_norm", "transpose",
        "reshape", "take", "scale", "softmax", "gelu",
    )
}
SETUP = {"datasets.synth_blobs", "encoder.init_encoder"}
EVALUATION = SETUP | BACKBONE_OPS | {
    "patch_ops.patchify",
    "encoder.forward_backbone.untaped",
    "evaluation.build_bank",
    "evaluation.extract_features",
    "evaluation.knn_classify",
}
TRAINING = SETUP | {f"autodiff.{op}" for op in tracing.PRIMITIVES} | {
    "augment.augment_view",
    "patch_ops.patchify",
    "mixing.plan_mix",
    "mixing.apply_mix",
    "encoder.forward_backbone.taped",
    "encoder.forward_backbone.untaped",
    "encoder.forward_heads",
    "encoder.forward_project.taped",
    "encoder.forward_project.untaped",
    "autodiff.Tape.backward",
    "objectives.loss_total",
    "trainer.optimizer_update",
    "encoder.ema_update",
    "trainer.train_step",
    "trainer.pretrain",
    "trainer.init_state",
    "trainer.save_state",
    "encoder.write_checkpoint",
}
EXERCISED = {
    "micro-pretrain": TRAINING | EVALUATION,
    "tiny-pretrain": TRAINING,
    "knn-eval": EVALUATION,
}

# the same code paths at test scale: one step, or one small pass
SMALL = {
    "micro-pretrain": dict(epochs=1, warmup_epochs=0, per_class=16, val_per_class=16),
    "tiny-pretrain": dict(
        vit=encoder.vit_tiny(8, depth=1, head_hidden=64, head_out=16),
        per_class=16,
    ),
    "knn-eval": dict(train_per_class=64, val_per_class=32),
}


def traced_unit(name: str, tmp_path: Path):
    spec = dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])
    tracer = tracing.Tracer()
    if isinstance(spec, workloads.PretrainSpec):
        unit = workloads.pretrain_call(spec, 3, tmp_path / "run", tracer)
    else:
        unit = workloads.knn_pass(spec, 3, tracer, reference=True)
    return unit, tracer


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_every_predicted_function_is_traced(name, tmp_path):
    unit, tracer = traced_unit(name, tmp_path)
    assert all(unit.checks.values()), unit.checks
    seen = {label for label, row in tracer.summary().items() if row["calls"] > 0}
    assert sorted(EXERCISED[name] - seen) == [], "wrapped but never called"
    assert sorted(seen - EXERCISED[name]) == [], "called but predicted unused"


# primitives every call of a span must reach, directly or through children
HEAD_OPS = {
    f"autodiff.{op}"
    for op in ("matmul", "mean", "sub", "mul", "div", "sqrt", "add", "relu")
}
LOSS_OPS = {
    f"autodiff.{op}"
    for op in (
        "l2_normalize", "matmul", "transpose", "log_softmax", "scale", "gather",
        "neg", "mean", "mul", "asum", "add",
    )
}
REACHES = {
    "encoder.forward_backbone.taped": BACKBONE_OPS,
    "encoder.forward_backbone.untaped": BACKBONE_OPS,
    "encoder.forward_project.taped": HEAD_OPS,
    "encoder.forward_project.untaped": HEAD_OPS,
    "encoder.forward_heads": HEAD_OPS,
    "objectives.loss_total": LOSS_OPS,
}


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_every_call_reaches_its_primitives(name, tmp_path):
    """Catches a module that stops calling a primitive through ``autodiff``."""
    _unit, tracer = traced_unit(name, tmp_path)
    reached = [set() for _ in tracer.spans]
    for label, _s, _e, parent, *_ in tracer.spans:
        while label.startswith("autodiff.") and parent >= 0:
            reached[parent].add(label)
            parent = tracer.spans[parent][3]
    for i, (label, *_rest) in enumerate(tracer.spans):
        missing = REACHES.get(label, set()) - reached[i]
        assert not missing, f"{label} span {i} never called {sorted(missing)}"


def test_wrappers_are_removed_after_a_unit(tmp_path):
    before = [getattr(owner, attr) for owner, attr, _name in tracing._targets()]
    traced_unit("micro-pretrain", tmp_path)
    after = [getattr(owner, attr) for owner, attr, _name in tracing._targets()]
    assert all(a is b for a, b in zip(before, after))


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    _unit, tracer = traced_unit("micro-pretrain", tmp_path)
    for label, start, end, parent, *_ in tracer.spans:
        assert start <= end
        if parent >= 0:
            _p, p_start, p_end, *_ = tracer.spans[parent]
            assert p_start <= start and end <= p_end
    row = tracer.summary()["trainer.train_step"]
    assert 0 < row["self_ms"] < row["ms"]


def test_benchmark_json_names_the_metrics_the_runs_report():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in config["per_layer"]]
    assert layer_names == tracing.PER_LAYER + [tracing.OVERHEAD_METRIC]
    for m in config["per_layer"]:
        assert m["unit"] == tracing.layer_unit(m["name"])
    for m in config["end_to_end"]:
        assert (m["unit"], m["better"]) == run.METRICS[m["name"]]
    assert sorted(w["name"] for w in config["workloads"]) == sorted(workloads.WORKLOADS)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(99)), 90) is None
    assert run.tail_percentile(list(range(1, 101)), 90) == 90


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    pairs = lambda change: list(zip(parent, change))  # noqa: E731
    faster = [90.0, 91.0, 89.0, 90.5, 89.5]
    assert compare.verdict(parent, faster, pairs(faster), False, 0.1)[1] == "improved"
    slower = [120.0, 121.0, 119.0, 120.5, 119.5]
    assert compare.verdict(parent, slower, pairs(slower), False, 0.1)[1] == "regressed"
    same = [100.2, 100.8, 99.1, 100.4, 99.6]
    assert compare.verdict(parent, same, pairs(same), False, 0.1)[1] == "within bound"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(noisy, same, pairs(same), False, 0.1)[1] == "unresolved"
    assert compare.verdict(parent, same, pairs(same), False, None)[1] == "no bound"
