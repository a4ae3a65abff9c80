"""The benchmark's workloads: one closed-loop caller each, in one process.

Every workload repeats one unit of work until its time is spent: a whole
``trainer.pretrain`` call (data generation included) for the two pretrain
workloads, and one evaluation pass (data, seeded encoder, ``build_bank``,
``extract_features``, ``knn_classify``) for knn-eval.  Inputs come from
``datasets.synth_blobs`` under the workload seed, so every repeat in a run
does identical work and same-seed runs do identical work.

Each unit is checked as it completes; ``pretrain_call`` and ``knn_pass``
list what they verify.
"""

from __future__ import annotations

import gc
import hashlib
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from patchmix import augment, datasets, encoder, evaluation, mixing, trainer

import tracing

# the augmentation of acceptance criteria 08/09: crop and flip only
SMOKE_AUG = augment.AugConfig(
    crop_area=(0.9, 1.0),
    jitter_prob=0.0,
    grayscale_prob=0.0,
    blur_prob=(0.0, 0.0),
    solarize_prob=(0.0, 0.0),
)


# every workload trains or evaluates on two-class blobs at the noise of
# criteria 08/09; validation images use the next seed, as there
CLASSES = 2
NOISE_SIGMA = 0.5
KNN_K = 5


def _blobs(image_side: int, per_class: int, seed: int, split: str):
    return datasets.synth_blobs(
        CLASSES, per_class, image_side, True,
        seed=seed, noise_sigma=NOISE_SIGMA, split=split,
    )


@dataclass(frozen=True)
class PretrainSpec:
    """One ``pretrain`` call (batch 32), optionally followed by kNN."""

    vit: encoder.ViTConfig
    aug: augment.AugConfig
    mix_count: int
    epochs: int
    warmup_epochs: int
    momentum_mu: tuple[float, float]
    per_class: int
    val_per_class: int = 0  # 0: no kNN evaluation of the final encoder

    def train_config(self, seed: int) -> trainer.TrainConfig:
        return trainer.TrainConfig(
            vit=self.vit,
            aug=self.aug,
            epochs=self.epochs,
            warmup_epochs=self.warmup_epochs,
            mix_count=self.mix_count,
            momentum_mu=self.momentum_mu,
            seed=seed,
        )


@dataclass(frozen=True)
class KnnSpec:
    """Forward-only evaluation of a seeded encoder."""

    vit: encoder.ViTConfig
    train_per_class: int
    val_per_class: int


WORKLOADS = {
    # the tier-1 smoke configuration (criteria 08/09), 96 steps per call
    "micro-pretrain": PretrainSpec(
        vit=encoder.vit_micro(8),
        aug=SMOKE_AUG,
        mix_count=2,
        epochs=12,
        warmup_epochs=1,
        momentum_mu=(0.9, 1.0),
        per_class=128,
        val_per_class=256,
    ),
    # 64 tokens at width 192: the backbone GEMMs, GELU and attention dominate
    "tiny-pretrain": PretrainSpec(
        vit=encoder.vit_tiny(16, depth=2, head_hidden=1024),
        aug=augment.AugConfig(),
        mix_count=3,
        epochs=1,
        warmup_epochs=0,
        momentum_mu=(0.996, 1.0),
        per_class=32,
    ),
    # 2048-image bank, 1024 queries: a 1024x2048 similarity matrix
    "knn-eval": KnnSpec(
        vit=encoder.vit_micro(8), train_per_class=1024, val_per_class=512
    ),
}


class StepProbe:
    """Hooks of every pretrain unit: step timing, first mix, checkpoint.

    Wraps ``trainer.train_step`` to time each step and keep its report,
    ``mixing.apply_mix`` to keep the first call's input and output for the
    loop oracle, and ``encoder.write_checkpoint`` to keep what was saved.
    """

    def __init__(self):
        self.steps: list[tuple[float, float, object]] = []  # start, end, report
        self.first_mix = None
        self.saved = None

    def install(self, patcher: tracing.Patcher) -> None:
        clock = time.perf_counter

        def step(fn):
            def wrapper(state, batch):
                start = clock()
                state, report = fn(state, batch)
                self.steps.append((start, clock(), report))
                return state, report

            return wrapper

        def mix(fn):
            def wrapper(pb, plan):
                out = fn(pb, plan)
                if self.first_mix is None:
                    self.first_mix = (pb, plan, out)
                return out

            return wrapper

        def checkpoint(fn):
            def wrapper(path, config, blobs, meta):
                self.saved = (Path(path), config, blobs, meta)
                return fn(path, config, blobs, meta)

            return wrapper

        patcher.wrap(trainer, "train_step", step)
        patcher.wrap(mixing, "apply_mix", mix)
        patcher.wrap(encoder, "write_checkpoint", checkpoint)


@dataclass
class Unit:
    """Measurements and check results of one unit of work.

    ``seconds`` and ``images`` cover the workload's main calls: ``pretrain``
    for the pretrain workloads, ``build_bank`` plus ``extract_features`` for
    knn-eval.  ``step_ms`` holds one entry per train step, or the whole
    pass for knn-eval.  ``digest`` identifies the unit's output, so repeats
    of one seed can be compared byte for byte.
    """

    seconds: float
    images: int
    setup_s: float
    step_ms: list[float]
    attempted: int
    failed: int
    digest: str
    checks: dict[str, bool]
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def images_per_s(self) -> float:
        return self.images / self.seconds


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _checkpoint_matches(probe: StepProbe, final: Path, cfg, steps: int) -> bool:
    """The final checkpoint reads back with arrays equal to the saved state."""
    path, config, blobs, _meta = probe.saved
    if path != Path(final):
        return False
    config_read, blobs_read, meta_read = encoder.read_checkpoint(final)
    return (
        config_read == config == cfg.vit
        and int(meta_read["step"]) == steps
        and blobs_read.keys() == blobs.keys()
        and all(
            blobs_read[k].dtype == blobs[k].dtype
            and np.array_equal(blobs_read[k], blobs[k])
            for k in blobs
        )
    )


def pretrain_call(
    spec: PretrainSpec, seed: int, out_dir: Path, tracer: tracing.Tracer | None
) -> Unit:
    """Generate the data, run ``pretrain`` into ``out_dir``, check, clean up.

    Checks: every completed step reports a finite loss (aborted steps
    count as failed); the first mix equals the loop oracle on the same
    plan; the final checkpoint reads back equal to the state that was
    saved; the log holds one row per completed step.
    """
    probe = StepProbe()
    with tracing.Patcher() as patcher:
        if tracer is not None:
            tracer.install(patcher)
        probe.install(patcher)

        start = time.perf_counter()
        side = spec.vit.image_side
        train = _blobs(side, spec.per_class, seed, "train")
        val = None
        if spec.val_per_class:
            val = _blobs(side, spec.val_per_class, seed + 1, "val")
        data_s = time.perf_counter() - start

        cfg = spec.train_config(seed)
        shutil.rmtree(out_dir, ignore_errors=True)
        start = time.perf_counter()
        final = trainer.pretrain(cfg, train, out_dir)
        seconds = time.perf_counter() - start

        extra = {}
        if val is not None:
            params = trainer.state_from_checkpoint(final, cfg).encoder
            extra = _knn_figures(params, train, val)[0]

    reports = [r for _s, _e, r in probe.steps]
    ok = [r for r in reports if r is not None]  # None: the step was aborted
    log_path = Path(out_dir) / "train_log.csv"
    pb, plan, mixed = probe.first_mix
    oracle = mixing.naive_mix_oracle(pb, plan.config, plan.perm)
    checks = {
        "finite_loss": len(ok) > 0 and all(math.isfinite(r.l_total) for r in ok),
        "mix_oracle": np.array_equal(oracle, mixed.patches.patches),
        "checkpoint_readback": _checkpoint_matches(probe, final, cfg, len(ok)),
        "log_rows": len(log_path.read_text().splitlines()) == len(ok) + 1,
    }
    extra["loss_end"] = statistics.fmean(r.l_total for r in ok[-10:])
    unit = Unit(
        seconds=seconds,
        images=len(reports) * cfg.batch_size,
        setup_s=data_s + (probe.steps[0][0] - start),
        step_ms=[(end - begin) * 1e3 for begin, end, _r in probe.steps],
        attempted=len(reports),
        failed=len(reports) - len(ok),
        digest=_sha256(log_path),
        checks=checks,
        extra=extra,
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    return unit


def _knn_figures(params, train, val):
    """Bank and queries from ``params``, then kNN; returns figures and outputs."""
    t0 = time.perf_counter()
    bank = evaluation.build_bank(params, train)
    queries = evaluation.extract_features(params, val.images)
    t1 = time.perf_counter()
    preds, acc = evaluation.knn_classify(
        bank, queries, k=KNN_K, query_labels=val.labels
    )
    t2 = time.perf_counter()
    figures = {
        "knn_acc": acc,
        "extract_images_per_s": (train.count + val.count) / (t1 - t0),
        "knn_classify_ms": (t2 - t1) * 1e3,
    }
    return figures, bank, queries, preds, t1 - t0


def _reference_knn(bank, queries: np.ndarray, k: int = KNN_K, tau: float = 0.07):
    """Independent kNN: full sort per query, votes summed in a loop."""
    q = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    sims = q @ bank.features.T
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    preds = np.empty(q.shape[0], dtype=np.int64)
    for i in range(q.shape[0]):
        votes = np.zeros(bank.num_classes)
        for j in order[i]:
            votes[bank.labels[j]] += math.exp(sims[i, j] / tau)
        preds[i] = int(np.argmax(votes))
    return preds


def knn_pass(
    spec: KnnSpec, seed: int, tracer: tracing.Tracer | None, reference: bool
) -> Unit:
    """Data and a seeded encoder, then bank, queries and classification.

    Checks: features are finite and the queries unit-norm; with
    ``reference``, the predictions equal an independent kNN.
    """
    with tracing.Patcher() as patcher:
        if tracer is not None:
            tracer.install(patcher)
        start = time.perf_counter()
        train = _blobs(spec.vit.image_side, spec.train_per_class, seed, "train")
        val = _blobs(spec.vit.image_side, spec.val_per_class, seed + 1, "val")
        params = encoder.init_encoder(spec.vit, np.random.default_rng(seed))
        setup_s = time.perf_counter() - start
        figures, bank, queries, preds, extract_s = _knn_figures(params, train, val)

    checks = {
        "finite_features": bool(
            np.isfinite(bank.features).all() and np.isfinite(queries).all()
        ),
        "unit_norm_queries": bool(
            np.allclose(np.linalg.norm(queries, axis=1), 1.0, atol=1e-9)
        ),
    }
    if reference:
        checks["knn_reference"] = bool(
            np.array_equal(preds, _reference_knn(bank, queries))
        )
    digest = hashlib.sha256(bank.features.tobytes() + preds.tobytes()).hexdigest()
    return Unit(
        seconds=extract_s,
        images=train.count + val.count,
        setup_s=setup_s,
        step_ms=[extract_s * 1e3 + figures["knn_classify_ms"]],
        attempted=1,
        failed=0,
        digest=digest,
        checks=checks,
        extra=figures,
    )


def repeat_until(seconds: float, min_units: int, unit):
    """Closed loop: call ``unit(i)`` until another would overrun ``seconds``.

    At least ``min_units`` calls are made; the loop stops before a call
    that, at the pace of the last one, would end after the deadline.
    """
    start = time.perf_counter()
    results = []
    while True:
        gc.collect()  # each unit starts without the previous one's garbage
        t0 = time.perf_counter()
        results.append(unit(len(results)))
        last = time.perf_counter() - t0
        if len(results) >= min_units and time.perf_counter() + last > start + seconds:
            return results
