"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single ``criterion NN: PASS|FAIL (detail)`` line before
asserting, so a verbose run reads as a checklist. The learning-based
criteria (08, 09) share one set of pretraining runs through module-scoped
fixtures; their configuration is frozen here on purpose, since changing
it invalidates the recorded pass rates.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from patchmix import augment as au
from patchmix import autodiff as ad
from patchmix import datasets as ds
from patchmix import encoder as enc
from patchmix import evaluation as ev
from patchmix import mixing as mx
from patchmix import objectives as ob
from patchmix import patch_ops as po
from patchmix import trainer as tr

pytestmark = pytest.mark.filterwarnings("ignore:batch size")


def check(num: str, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- mixing


def test_criterion_01_mix_oracle_grid():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        for m in range(1, min(n, 4) + 1):
            for t in (4, 8, 9, 16, 196):
                config = mx.MixConfig(images=n, groups=m, tokens=t)
                for _ in range(5):
                    perm = po.sample_permutation(t, rng)
                    plan = mx.plan_mix(config, perm)
                    pb = po.PatchBatch(rng.random((n, t, 6)), 1, (1, t), 6)
                    fast = mx.apply_mix(pb, plan).patches.patches
                    slow = mx.naive_mix_oracle(pb, config, perm)
                    assert np.array_equal(fast, slow), (
                        f"N={n} M={m} T={t} perm={perm.forward.tolist()}"
                    )
                    checked += 1
    elapsed = time.perf_counter() - start
    check(
        "01",
        elapsed < 10.0,
        f"apply_mix equals loop oracle bit-exactly on {checked} instances "
        f"in {elapsed:.2f}s",
    )


def test_criterion_02_worked_examples():
    plan = mx.plan_mix(
        mx.MixConfig(images=9, groups=3, tokens=18),
        po.Permutation.identity(18),
    )
    targets_ok = plan.mixed_targets[0].tolist() == [7, 8, 0, 1, 2]
    weights = plan.mixed_weights[0]
    expect_w = np.array([1 / 3, 2 / 3, 1.0, 2 / 3, 1 / 3])
    weights_ok = bool(np.all(np.abs(weights - expect_w) <= 1e-12))
    gather = mx.flat_group_gather(3, 4)
    gather_ok = gather.tolist() == [0, 5, 10, 3, 4, 9, 2, 7, 8, 1, 6, 11]
    check(
        "02",
        targets_ok and weights_ok and gather_ok,
        f"window targets {plan.mixed_targets[0].tolist()}, weights within "
        f"1e-12, 12-slot gather {gather.tolist()}",
    )


def test_criterion_03_conservation_on_random_instances():
    rng = np.random.default_rng(1)
    ragged = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(n, 4) + 1))
        t = int(rng.integers(m, 33))
        if t % m != 0:
            ragged += 1
        perm = po.sample_permutation(t, rng)
        plan = mx.plan_mix(mx.MixConfig(images=n, groups=m, tokens=t), perm)

        sizes = np.diff(plan.group_bounds)
        expect = np.full(m, t // m)
        expect[: t % m] += 1
        assert np.array_equal(sizes, expect), "leftover rule violated"

        pb = po.PatchBatch(rng.random((n, t, 3)), 1, (1, t), 3)
        mixed = mx.apply_mix(pb, plan).patches.patches
        # position preservation: the mix is exactly a per-position gather
        assert np.array_equal(
            mixed, pb.patches[plan.source_map, np.arange(t)[None, :], :]
        )
        # conservation: each token position holds a permutation of the batch
        assert np.array_equal(
            np.sort(plan.source_map, axis=0),
            np.broadcast_to(np.arange(n)[:, None], (n, t)),
        )
    check(
        "03",
        ragged >= 200,
        f"conservation and preservation on 1000 instances "
        f"({ragged} with T mod M != 0)",
    )


# ------------------------------------------------------------- objectives


def test_criterion_04_degenerate_loss_closed_forms():
    worst = 0.0
    for n, m in ((4, 2), (9, 3), (16, 3)):
        plan = mx.plan_mix(
            mx.MixConfig(images=n, groups=m, tokens=2 * m),
            po.Permutation.identity(2 * m),
        )
        same = np.tile(np.full(6, 0.5), (n, 1))
        report, _ = ob.loss_total(ob.ContrastBatch(same, same, same, same, same, plan))
        ln = math.log(n)
        worst = max(
            worst,
            abs(report.l_oto - ln),
            abs(report.l_mto - ln),
            abs(report.l_mtm - m * ln),
            abs(report.l_total - (m + 2) * ln),
        )
    check(
        "04",
        worst <= 1e-9,
        f"identical embeddings give ln N, ln N, M ln N, (M+2) ln N; "
        f"max deviation {worst:.2e}",
    )


def test_criterion_05_gradients():
    n, dim = 4, 8
    rng = np.random.default_rng(2)
    plan = mx.plan_mix(
        mx.MixConfig(images=n, groups=2, tokens=8),
        po.sample_permutation(8, rng),
    )
    z1, z2, zm = (rng.normal(size=(n, dim)) for _ in range(3))

    def fn(hm, hv):
        return ob.loss_total(ob.ContrastBatch(hm, hv, z1, z2, zm, plan))[1]

    res = ad.check_gradients(
        fn, [rng.normal(size=(n, dim)), rng.normal(size=(n, dim))], step=1e-3
    )

    tape = ad.Tape()
    zs = [tape.var(z) for z in (z1, z2, zm)]
    cb = ob.ContrastBatch(
        tape.var(rng.normal(size=(n, dim))),
        tape.var(rng.normal(size=(n, dim))),
        zs[0],
        zs[1],
        zs[2],
        plan,
    )
    tape.backward(ob.loss_total(cb)[1])
    frozen = all(np.all(tape.grad(z) == 0.0) for z in zs)

    check(
        "05",
        res.max_rel_err <= 1e-4 and frozen,
        f"finite differences match within {res.max_rel_err:.2e} over "
        f"{res.checked} coords; momentum-branch gradients identically zero",
    )


# ------------------------------------------------------------------- ema


def test_criterion_06_ema_closed_form():
    params = enc.init_encoder(enc.vit_micro(8), np.random.default_rng(3))
    twin = enc.init_momentum(params)
    for v in twin.params.values():
        v += 0.5  # displace so the decay is visible
    xi0 = {k: v.copy() for k, v in twin.params.items()}

    mu = 0.99
    for _ in range(100):
        twin = enc.ema_update(params, twin, mu)
    decay = mu**100
    worst = max(
        float(
            np.max(
                np.abs(
                    twin.params[k]
                    - (decay * xi0[k] + (1.0 - decay) * params.params[k])
                )
            )
        )
        for k in twin.params
    )

    frozen = enc.init_momentum(params)
    for v in frozen.params.values():
        v += 0.5
    before = {k: v.copy() for k, v in frozen.params.items()}
    for _ in range(5):
        frozen = enc.ema_update(params, frozen, 1.0)
    fixpoint = all(
        np.array_equal(frozen.params[k], before[k]) for k in before
    )

    check(
        "06",
        worst <= 1e-12 and fixpoint,
        f"100 steps at mu=0.99 within {worst:.2e} of the closed form; "
        f"mu=1 is a bitwise fixpoint",
    )


def test_criterion_07_schedule_endpoints():
    lr0 = tr.schedule(0, 304, 32, 2e-3, 0.0, "warmup-cosine")
    lr_w = tr.schedule(32, 304, 32, 2e-3, 0.0, "warmup-cosine")
    lr_end = tr.schedule(304, 304, 32, 2e-3, 0.0, "warmup-cosine")
    wd0 = tr.schedule(0, 304, 0, 0.04, 0.4, "cosine")
    wd_end = tr.schedule(304, 304, 0, 0.04, 0.4, "cosine")
    mu0 = tr.schedule(0, 304, 0, 0.996, 1.0, "cosine")
    mu_end = tr.schedule(304, 304, 0, 0.996, 1.0, "cosine")
    ok = (
        lr0 == 0.0
        and lr_w == 2e-3
        and lr_end == 0.0
        and wd0 == 0.04
        and wd_end == 0.4
        and mu0 == 0.996
        and mu_end == 1.0
    )
    check(
        "07",
        ok,
        "lr 0 -> base -> 0, wd 0.04 -> 0.4, mu 0.996 -> 1.0, all exact",
    )


# ------------------------------------------------- smoke learning (08, 09)

SMOKE_SIGMA = 0.5
SMOKE_AUG = au.AugConfig(
    crop_area=(0.9, 1.0),
    jitter_prob=0.0,
    grayscale_prob=0.0,
    blur_prob=(0.0, 0.0),
    solarize_prob=(0.0, 0.0),
)
SMOKE_STEPS = 300
SMOKE_SEEDS = range(10)


def smoke_run(seed: int, mix_count: int, loss_weights: tuple) -> dict:
    """One 300-step pretraining run on the 2-class blob task.

    Returns the random-init kNN baseline, the relative drop of l_total
    from its first-10-step mean to its last-10-step mean, and the final
    kNN(k=5) validation accuracy.
    """
    train = ds.synth_blobs(2, 128, 8, True, seed=seed, noise_sigma=SMOKE_SIGMA)
    val = ds.synth_blobs(
        2, 64, 8, True, seed=seed + 1, noise_sigma=SMOKE_SIGMA, split="val"
    )
    cfg = tr.TrainConfig(
        vit=enc.vit_micro(8),
        aug=SMOKE_AUG,
        epochs=38,
        warmup_epochs=4,
        base_lr=2e-3,
        batch_size=32,
        mix_count=mix_count,
        momentum_mu=(0.9, 1.0),
        seed=seed,
        loss_weights=loss_weights,
    )
    state = tr.init_state(cfg, train.count)

    def knn_accuracy() -> float:
        bank = ev.build_bank(state.encoder, train)
        _, acc = ev.knn_classify(
            bank,
            ev.extract_features(state.encoder, val.images),
            k=5,
            query_labels=val.labels,
        )
        return acc

    random_acc = knn_accuracy()
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = tr._derive_rng(seed, tr._RNG_ORDER, epoch).permutation(train.count)
        for b in range(train.count // cfg.batch_size):
            idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            state, report = tr.train_step(state, po.ImageBatch(train.images[idx]))
            losses.append(report.l_total)
            if len(losses) >= SMOKE_STEPS:
                break
        if len(losses) >= SMOKE_STEPS:
            break

    head = float(np.mean(losses[:10]))
    tail = float(np.mean(losses[-10:]))
    return {
        "random_acc": random_acc,
        "drop": (head - tail) / head,
        "acc": knn_accuracy(),
    }


@pytest.fixture(scope="module")
def smoke_m2():
    start = time.perf_counter()
    runs = {s: smoke_run(s, 2, (1.0, 1.0, 1.0)) for s in SMOKE_SEEDS}
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def smoke_ablation():
    m3 = {s: smoke_run(s, 3, (1.0, 1.0, 1.0)) for s in SMOKE_SEEDS}
    oto = {s: smoke_run(s, 2, (0.0, 0.0, 1.0)) for s in SMOKE_SEEDS}
    return m3, oto


def test_criterion_08_smoke_learning(smoke_m2):
    runs, elapsed = smoke_m2
    passed = sum(
        1
        for r in runs.values()
        if r["drop"] >= 0.20 and r["acc"] >= max(r["random_acc"] + 0.15, 0.80)
    )
    drops = ", ".join(f"{r['drop']:.0%}" for r in runs.values())
    accs = ", ".join(f"{r['acc']:.2f}" for r in runs.values())
    check(
        "08",
        passed >= 8 and elapsed <= 300.0,
        f"{passed}/10 seeds pass (need 8) in {elapsed:.0f}s (cap 300s); "
        f"loss drops [{drops}], knn [{accs}]",
    )


def test_criterion_09_ablation_direction(smoke_m2, smoke_ablation):
    runs_m2, _ = smoke_m2
    m3, oto = smoke_ablation
    w2 = sum(1 for s in SMOKE_SEEDS if runs_m2[s]["acc"] >= oto[s]["acc"])
    w3 = sum(1 for s in SMOKE_SEEDS if m3[s]["acc"] >= oto[s]["acc"])
    ok = w2 >= 7 and w3 >= 7
    # informational, non-gating: the line records the direction, but a
    # reversal on this desk-scale task does not fail the build
    line = (
        f"criterion 09: {'PASS' if ok else 'FAIL'} (informational: M=2 beats "
        f"or ties the single-loss baseline in {w2}/10 seeds, M=3 in {w3}/10, "
        f"threshold 7)"
    )
    print(line)
    assert len(m3) == 10 and len(oto) == 10


# -------------------------------------------------- determinism and data


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_criterion_10_determinism_and_resume(tmp_path, precision):
    cfg = tr.TrainConfig(
        vit=enc.vit_micro(8),
        epochs=4,
        warmup_epochs=1,
        base_lr=1e-3,
        batch_size=4,
        mix_count=2,
        seed=0,
        precision=precision,
        checkpoint_every=2,
    )
    data = ds.synth_blobs(2, 4, 8, True, seed=0)

    final_a = tr.pretrain(cfg, data, tmp_path / "a")
    tr.pretrain(cfg, data, tmp_path / "b")
    logs_equal = (tmp_path / "a" / "train_log.csv").read_bytes() == (
        tmp_path / "b" / "train_log.csv"
    ).read_bytes()

    final_c = tr.pretrain(
        cfg, data, tmp_path / "c",
        resume_from=tmp_path / "a" / "checkpoint_epoch0002.bin",
    )
    full = tr.state_from_checkpoint(final_a, cfg)
    res = tr.state_from_checkpoint(final_c, cfg)
    resumed_equal = (
        full.loss_history == res.loss_history
        and all(
            np.array_equal(full.encoder.params[k], res.encoder.params[k])
            for k in full.encoder.params
        )
        and all(
            np.array_equal(full.momentum.params[k], res.momentum.params[k])
            for k in full.momentum.params
        )
    )
    check(
        "10",
        logs_equal and resumed_equal,
        f"{precision}: equal seeds give byte-identical logs; mid-run resume "
        "reproduces the full trajectory exactly",
    )


def test_criterion_11_cifar_golden_records(tmp_path):
    white = tmp_path / "white.bin"
    white.write_bytes(bytes([7]) + b"\xff" * 3072)
    out = ds.load_cifar_binary(white)
    white_ok = (
        out.count == 1
        and out.labels.tolist() == [7]
        and bool(np.all(out.images == 1.0))
    )

    planes = tmp_path / "planes.bin"
    planes.write_bytes(bytes([2]) + b"\xff" * 1024 + b"\x00" * 1024 + b"\x80" * 1024)
    img = ds.load_cifar_binary(planes).images[0]
    planes_ok = (
        bool(np.all(img[0] == 1.0))
        and bool(np.all(img[1] == 0.0))
        and bool(np.all(img[2] == 0x80 / 255.0))
    )

    fine = tmp_path / "fine.bin"
    fine.write_bytes(bytes([13, 42]) + bytes(3072))
    fine_ok = ds.load_cifar_binary(fine, variant="cifar100").labels.tolist() == [42]

    check(
        "11",
        white_ok and planes_ok and fine_ok,
        "hand-written records parse bit-exactly: white label-7 image, "
        "plane order, 100-class fine label",
    )


CIFAR_DIR = Path(__file__).resolve().parent.parent / "data" / "cifar-10-batches-bin"


@pytest.mark.skipif(
    not CIFAR_DIR.is_dir(), reason="real CIFAR binaries not present"
)
def test_criterion_11_full_split_counts():
    train = ds.load_cifar_binary(CIFAR_DIR, split="train")
    val = ds.load_cifar_binary(CIFAR_DIR, split="val")
    check(
        "11-full",
        train.count == 50000 and val.count == 10000,
        f"real archive holds {train.count} train and {val.count} val records",
    )
