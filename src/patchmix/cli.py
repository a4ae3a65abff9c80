"""Command-line surface: pretraining, evaluation, demos, verification.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
The only environment variable honored is PATCHMIX_THREADS (BLAS/OpenMP
thread count); it must be applied before numpy is first imported, which
is why this module imports the numerical modules inside the commands
that use them and the package __init__ imports no submodule.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from pathlib import Path

from . import kvconfig as kv

THREAD_ENV = "PATCHMIX_THREADS"

# Full key registry with defaults; values are typed by example. Unknown
# keys in a config file or --override are a usage error.
DEFAULTS: dict = {
    "data.kind": "synth",  # synth | cifar10 | cifar100
    "data.path": "",
    "data.image_side": 8,
    "data.classes": 2,
    "data.train_per_class": 128,
    "data.val_per_class": 64,
    "data.noise_sigma": 0.1,
    "data.patch_structured": True,
    "model.preset": "micro",  # micro | tiny
    "model.patch_side": 0,  # 0 keeps the preset value
    "model.depth": 0,
    "model.heads": 0,
    "model.dim": 0,
    "model.head_hidden": 0,
    "model.head_out": 0,
    "train.epochs": 10,
    "train.warmup_epochs": 1,
    "train.base_lr": 2e-3,
    "train.batch_size": 32,
    "train.mix_count": 3,
    "train.temperature": 0.2,
    "train.wd_start": 0.04,
    "train.wd_end": 0.4,
    "train.mu_start": 0.996,
    "train.mu_end": 1.0,
    "train.grad_clip": 0.0,  # 0 disables clipping
    "train.w_mto": 1.0,
    "train.w_mtm": 1.0,
    "train.w_oto": 1.0,
    "train.precision": "f32",  # f32 | f64; equals TrainConfig.precision
    "train.checkpoint_every": 0,
    "train.resume": "",
    "aug.crop_area_min": 0.1,
    "aug.crop_area_max": 1.0,
    "aug.flip_prob": 0.5,
    "aug.jitter_prob": 0.8,
    "aug.grayscale_prob": 0.2,
    "aug.blur_prob1": 1.0,
    "aug.blur_prob2": 0.1,
    "aug.solarize_prob2": 0.2,
    "aug.color_ops": True,
    "eval.checkpoint": "",
    "eval.k": 20,
    "eval.tau": 0.07,
    "eval.epochs": 100,
    "eval.lr": 0.1,
    "eval.index": 0,
    "demo.images": 3,
    "demo.groups": 3,
    "demo.format": "png",  # png | ppm
    "check.images": 4,
    "check.dim": 8,
    "check.tokens": 16,
    "check.step": 1e-3,
    "check.tolerance": 1e-4,
}


def apply_thread_env() -> None:
    """Propagate the thread-count variable to the numerics libraries.

    Only sets the standard knobs when they are not already set, so an
    explicit OMP_NUM_THREADS from the caller still wins.
    """
    want = os.environ.get(THREAD_ENV)
    if want is None:
        return
    if not want.isdigit() or int(want) < 1:
        raise ValueError(
            f"{THREAD_ENV} must be a positive integer, got {want!r}"
        )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, want)


def resolve_config(path: str | None, overrides: list[str]) -> dict:
    """Merge defaults, config file, and --override pairs, typed and checked."""
    raw: dict[str, str] = {}
    if path:
        raw.update(kv.load_config(path))
    for item in overrides:
        pairs = kv.parse_config_text(item)
        if not pairs:
            raise ValueError(f"override {item!r} holds no key=value pair")
        raw.update(pairs)

    cfg = dict(DEFAULTS)
    for key, value in raw.items():
        if key not in DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        default = DEFAULTS[key]
        if isinstance(default, bool):
            cfg[key] = kv.get_bool(value, key)
        elif isinstance(default, int):
            cfg[key] = kv.get_int(value, key)
        elif isinstance(default, float):
            cfg[key] = kv.get_float(value, key)
        else:
            cfg[key] = value
    return cfg


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def print_config(cfg: dict, seed: int, out: str | None) -> None:
    shown = {k: _fmt_value(v) for k, v in cfg.items()}
    shown["seed"] = str(seed)
    shown["out"] = out if out else ""
    sys.stdout.write("# resolved config\n")
    sys.stdout.write(kv.format_config(shown))
    sys.stdout.flush()


# ---------------------------------------------------------------- builders


def _dataset(cfg: dict, split: str, seed: int):
    from . import datasets as ds

    kind = cfg["data.kind"]
    if kind == "synth":
        per_class = cfg[
            "data.train_per_class" if split == "train" else "data.val_per_class"
        ]
        # disjoint noise draws per split, same class templates
        return ds.synth_blobs(
            cfg["data.classes"],
            per_class,
            cfg["data.image_side"],
            cfg["data.patch_structured"],
            seed=seed if split == "train" else seed + 1,
            noise_sigma=cfg["data.noise_sigma"],
            split=split,
        )
    if kind in ("cifar10", "cifar100"):
        if not cfg["data.path"]:
            raise ValueError(f"data.kind={kind} requires data.path")
        return ds.load_cifar_binary(cfg["data.path"], kind, split=split)
    raise ValueError(f"unknown data.kind {kind!r}; use synth, cifar10, cifar100")


def _vit_config(cfg: dict, image_side: int, channels: int):
    from . import encoder as enc

    overrides = {}
    for key, name in (
        ("model.patch_side", "patch_side"),
        ("model.depth", "depth"),
        ("model.heads", "heads"),
        ("model.dim", "dim"),
        ("model.head_hidden", "head_hidden"),
        ("model.head_out", "head_out"),
    ):
        if cfg[key]:
            overrides[name] = cfg[key]
    preset = cfg["model.preset"]
    if preset == "micro":
        return enc.vit_micro(image_side, channels, **overrides)
    if preset == "tiny":
        return enc.vit_tiny(image_side, channels, **overrides)
    raise ValueError(f"unknown model.preset {preset!r}; use micro or tiny")


def _aug_config(cfg: dict):
    from . import augment as au

    return au.AugConfig(
        crop_area=(cfg["aug.crop_area_min"], cfg["aug.crop_area_max"]),
        flip_prob=cfg["aug.flip_prob"],
        jitter_prob=cfg["aug.jitter_prob"],
        grayscale_prob=cfg["aug.grayscale_prob"],
        blur_prob=(cfg["aug.blur_prob1"], cfg["aug.blur_prob2"]),
        solarize_prob=(0.0, cfg["aug.solarize_prob2"]),
        color_ops=cfg["aug.color_ops"],
    )


def _train_config(cfg: dict, seed: int, vit):
    from . import trainer as tr

    return tr.TrainConfig(
        vit=vit,
        aug=_aug_config(cfg),
        epochs=cfg["train.epochs"],
        warmup_epochs=cfg["train.warmup_epochs"],
        base_lr=cfg["train.base_lr"],
        batch_size=cfg["train.batch_size"],
        mix_count=cfg["train.mix_count"],
        temperature=cfg["train.temperature"],
        weight_decay=(cfg["train.wd_start"], cfg["train.wd_end"]),
        momentum_mu=(cfg["train.mu_start"], cfg["train.mu_end"]),
        grad_clip=cfg["train.grad_clip"] or None,
        seed=seed,
        precision=cfg["train.precision"],
        checkpoint_every=cfg["train.checkpoint_every"],
        loss_weights=(cfg["train.w_mto"], cfg["train.w_mtm"], cfg["train.w_oto"]),
    )


def _encoder_from_checkpoint(cfg: dict):
    from . import trainer as tr

    path = cfg["eval.checkpoint"]
    if not path:
        raise ValueError("eval.checkpoint is required for this command")
    return tr.encoder_from_checkpoint(path)


def _require_out(out: str | None) -> Path:
    if not out:
        raise ValueError("this command writes files; pass --out DIR")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------- commands


def cmd_pretrain(cfg: dict, seed: int, out: str | None) -> int:
    from . import trainer as tr

    out_dir = _require_out(out)
    data = _dataset(cfg, "train", seed)
    vit = _vit_config(cfg, data.images.shape[2], data.images.shape[1])
    tc = _train_config(cfg, seed, vit)
    resume = cfg["train.resume"] or None
    final = tr.pretrain(tc, data, out_dir, resume_from=resume)
    print(f"checkpoint={final}")
    return 0


def _banks(cfg: dict, seed: int):
    from . import evaluation as ev

    params = _encoder_from_checkpoint(cfg)
    train = _dataset(cfg, "train", seed)
    val = _dataset(cfg, "val", seed)
    return params, ev.build_bank(params, train), ev.build_bank(params, val), val


def cmd_eval_knn(cfg: dict, seed: int, out: str | None) -> int:
    import numpy as np

    from . import evaluation as ev

    ev.check_tau(cfg["eval.tau"])  # before any feature is extracted
    _params, train_bank, val_bank, val = _banks(cfg, seed)
    preds, acc = ev.knn_classify(
        train_bank,
        val_bank.features,
        k=cfg["eval.k"],
        tau=cfg["eval.tau"],
        query_labels=val.labels,
    )
    print(f"knn_accuracy={acc}")
    if out:
        out_dir = _require_out(out)
        lines = ["class,count,correct,accuracy"]
        for c in range(val.num_classes):
            mask = val.labels == c
            count = int(mask.sum())
            correct = int(np.sum(preds[mask] == c)) if count else 0
            frac = correct / count if count else 0.0
            lines.append(f"{c},{count},{correct},{frac:.17g}")
        (out_dir / "knn_per_class.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_eval_linear(cfg: dict, seed: int, out: str | None) -> int:
    from . import evaluation as ev

    _params, train_bank, val_bank, _val = _banks(cfg, seed)
    acc = ev.linear_probe(
        train_bank,
        val_bank,
        epochs=cfg["eval.epochs"],
        lr=cfg["eval.lr"],
        seed=seed,
    )
    print(f"linear_accuracy={acc}")
    return 0


def cmd_mix_demo(cfg: dict, seed: int, out: str | None) -> int:
    import numpy as np

    from . import imgio
    from . import mixing as mx
    from . import patch_ops as po

    out_dir = _require_out(out)
    n = cfg["demo.images"]
    m = cfg["demo.groups"]
    fmt = cfg["demo.format"]
    if fmt not in ("png", "ppm"):
        raise ValueError(f"demo.format must be png or ppm, got {fmt!r}")

    data = _dataset(cfg, "train", seed)
    if data.count < n:
        raise ValueError(f"demo needs {n} images, dataset holds {data.count}")
    images = data.images[:n]
    patch_side = cfg["model.patch_side"] or 2
    pb = po.patchify(po.ImageBatch(images), patch_side)

    rng = np.random.default_rng(seed)
    perm = po.sample_permutation(pb.tokens, rng)
    plan = mx.plan_mix(mx.MixConfig(images=n, groups=m, tokens=pb.tokens), perm)
    mixed = mx.apply_mix(pb, plan)

    # the mix before and after its routing step, in shuffled order
    shuffled = po.shuffle(pb, plan.perm)
    smix = po.shuffle(mixed.patches, plan.perm)

    written = []
    for stem, batch in (
        ("orig", pb),
        ("shuffled", shuffled),
        ("smix", smix),
        ("mixed", mixed.patches),
    ):
        imgs = po.unpatchify(batch)
        for i in range(n):
            path = out_dir / f"{stem}_{i:03d}.{fmt}"
            written.append(imgio.write_image(path, imgs.data[i]))
    plan_path = out_dir / "plan.txt"
    plan_path.write_text(mx.plan_to_text(plan))
    written.append(plan_path)
    print(f"mix-demo: wrote {len(written)} files to {out_dir}")
    return 0


def cmd_oracle_check(cfg: dict, seed: int, out: str | None) -> int:
    import numpy as np

    from . import mixing as mx
    from . import patch_ops as po

    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    checked = 0
    rejected = 0
    dim = 6

    for n in range(2, 7):
        for m in range(1, 5):
            for t in (4, 8, 9, 16, 196):
                if m > n:
                    try:
                        mx.MixConfig(images=n, groups=m, tokens=t)
                    except ValueError:
                        rejected += 1
                        continue
                    print(
                        f"oracle-check: FAIL N={n} M={m} T={t}: "
                        f"M > N accepted instead of rejected"
                    )
                    return 1
                if t < m:
                    continue
                config = mx.MixConfig(images=n, groups=m, tokens=t)
                for rep in range(5):
                    perm = po.sample_permutation(t, rng)
                    instance = (
                        f"N={n} M={m} T={t} rep={rep} "
                        f"perm={perm.forward.tolist()}"
                    )
                    # plan_mix must warn exactly when N <= 2M - 2, where
                    # the mix-to-mix window repeats targets within a row
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        plan = mx.plan_mix(config, perm)
                    notes = [str(w.message) for w in caught]
                    expected = n <= 2 * m - 2
                    if len(notes) != int(expected) or not all(
                        "duplicate indices within a row" in note for note in notes
                    ):
                        print(
                            f"oracle-check: FAIL {instance}: plan_mix warned "
                            f"{notes}; duplicate-target warning expected: "
                            f"{expected}"
                        )
                        return 1
                    pb = po.PatchBatch(
                        rng.random((n, t, dim)), 1, (1, t), dim
                    )
                    fast = mx.apply_mix(pb, plan).patches.patches
                    slow = mx.naive_mix_oracle(pb, config, perm)
                    if not np.array_equal(fast, slow):
                        bad = np.argwhere(fast != slow)[0]
                        print(
                            f"oracle-check: FAIL {instance}: apply_mix "
                            f"differs from naive oracle first at "
                            f"(image, token, coord)={tuple(bad.tolist())}"
                        )
                        return 1
                    # multiset conservation: each token column is a
                    # permutation of the batch
                    cols_ok = (
                        np.sort(plan.source_map, axis=0)
                        == np.arange(n)[:, None]
                    ).all()
                    if not cols_ok:
                        print(
                            f"oracle-check: FAIL {instance}: a token "
                            f"column is not a permutation of sources"
                        )
                        return 1
                    checked += 1
                # weight closed form per config
                w = mx.mix_weights(config)
                row = w[0]
                ok = (
                    abs(row.sum() - m) <= 1e-12 * m
                    and row[m - 1] == 1.0
                    and np.allclose(row, row[::-1], rtol=0, atol=0)
                )
                if not ok:
                    print(
                        f"oracle-check: FAIL N={n} M={m}: weight row "
                        f"{row.tolist()} violates closed form"
                    )
                    return 1

    elapsed = time.perf_counter() - start
    print(
        f"oracle-check: pass ({checked} instances, {rejected} M>N configs "
        f"correctly rejected, {elapsed:.2f}s)"
    )
    return 0


def cmd_grad_check(cfg: dict, seed: int, out: str | None) -> int:
    """Loss gradients against central differences, and the momentum branch.

    Runs in 64 bits by construction, whatever ``train.precision`` says: its
    points are drawn as 64-bit normals and ``check_gradients`` evaluates
    at 64-bit precision.
    """
    import numpy as np

    from . import autodiff as ad
    from . import mixing as mx
    from . import objectives as ob
    from . import patch_ops as po

    n = cfg["check.images"]
    dim = cfg["check.dim"]
    t = cfg["check.tokens"]
    m = min(cfg["train.mix_count"], n)
    tau = cfg["train.temperature"]
    step = cfg["check.step"]
    tol = cfg["check.tolerance"]

    rng = np.random.default_rng(seed)
    perm = po.sample_permutation(t, rng)
    plan = mx.plan_mix(mx.MixConfig(images=n, groups=m, tokens=t), perm)
    point = lambda: rng.normal(size=(n, dim))
    h_mix1, h_view2 = point(), point()
    z_view1, z_view2, z_mix2 = point(), point(), point()

    checks = [
        (
            "l_mto",
            lambda h: ob.loss_mto(h, z_view2, plan.origin_targets, tau),
            [h_mix1],
        ),
        (
            "l_mtm",
            lambda h: ob.loss_mtm(
                h, z_mix2, plan.mixed_targets, plan.mixed_weights, tau
            ),
            [h_mix1],
        ),
        ("l_oto", lambda h: ob.loss_oto(h, z_view1, tau), [h_view2]),
        (
            "l_total",
            lambda hm, hv: ob.loss_total(
                ob.ContrastBatch(hm, hv, z_view1, z_view2, z_mix2, plan, tau)
            )[1],
            [h_mix1, h_view2],
        ),
    ]

    failed = False
    for name, fn, points in checks:
        res = ad.check_gradients(fn, points, step=step)
        status = "ok" if res.max_rel_err <= tol else "FAIL"
        print(
            f"grad-check {name}: max_rel_err={res.max_rel_err:.3e} "
            f"({res.checked} coords, {len(res.nonsmooth)} kinks skipped) "
            f"{status}"
        )
        failed = failed or res.max_rel_err > tol

    # momentum-branch inputs must receive exactly zero gradient
    tape = ad.Tape()
    zs = [tape.var(z) for z in (z_view1, z_view2, z_mix2)]
    cb = ob.ContrastBatch(
        tape.var(h_mix1), tape.var(h_view2), zs[0], zs[1], zs[2], plan, tau
    )
    _, total = ob.loss_total(cb)
    tape.backward(total)
    if all(np.all(tape.grad(z) == 0.0) for z in zs):
        print("grad-check xi_branch: gradients identically zero ok")
    else:
        print("grad-check xi_branch: nonzero gradient leaked FAIL")
        failed = True

    return 1 if failed else 0


def cmd_attn_dump(cfg: dict, seed: int, out: str | None) -> int:
    import numpy as np

    from . import evaluation as ev
    from . import imgio

    out_dir = _require_out(out)
    params = _encoder_from_checkpoint(cfg)
    val = _dataset(cfg, "val", seed)
    index = cfg["eval.index"]
    if not 0 <= index < val.count:
        raise ValueError(f"eval.index {index} outside dataset of {val.count}")
    maps = ev.attention_maps(params, val.images[index])

    lines = ["head,row,col,value"]
    for h in range(maps.shape[0]):
        peak = maps[h].max()
        img = maps[h] / peak if peak > 0 else maps[h]
        imgio.write_image(out_dir / f"attn_head{h}.{cfg['demo.format']}", img)
        for r in range(maps.shape[1]):
            for c in range(maps.shape[2]):
                lines.append(f"{h},{r},{c},{maps[h, r, c]:.17g}")
    (out_dir / "attn.csv").write_text("\n".join(lines) + "\n")
    print(f"attn-dump: wrote {maps.shape[0]} head maps to {out_dir}")
    return 0


# ------------------------------------------------------------------ driver

_HANDLERS = {
    "pretrain": cmd_pretrain,
    "eval-knn": cmd_eval_knn,
    "eval-linear": cmd_eval_linear,
    "mix-demo": cmd_mix_demo,
    "oracle-check": cmd_oracle_check,
    "grad-check": cmd_grad_check,
    "attn-dump": cmd_attn_dump,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchmix",
        description="Patch-mixing contrastive pretraining and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", default=None)
        p.add_argument("--seed", metavar="U64", type=int, default=0)
        p.add_argument("--out", metavar="DIR", default=None)
        p.add_argument(
            "--override",
            metavar="KEY=VALUE",
            action="append",
            default=[],
        )
    return parser


def main(argv=None) -> int:
    try:
        apply_thread_env()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on unknown flags already
        return int(exc.code or 0)

    if not 0 <= args.seed < 2**64:
        print(f"error: --seed must be in [0, 2^64), got {args.seed}", file=sys.stderr)
        return 2

    try:
        cfg = resolve_config(args.config, args.override)
        print_config(cfg, args.seed, args.out)
        return _HANDLERS[args.command](cfg, args.seed, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
