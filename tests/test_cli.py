import contextlib
import dataclasses
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from patchmix import autodiff as ad
from patchmix import cli
from patchmix import datasets as ds
from patchmix import encoder as enc
from patchmix import kvconfig as kv
from patchmix import mixing as mx
from patchmix import patch_ops as po
from patchmix import trainer as tr

import checkpoint_bytes as cb


def quiet_main(args):
    """Run the CLI discarding stdout; for tests that only check effects."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(args)


def run_cli_process(args):
    """Run the CLI in a fresh interpreter that shows every warning."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [
            sys.executable, "-W", "always", "-c",
            "import sys; from patchmix import cli; sys.exit(cli.main(sys.argv[1:]))",
            *args,
        ],
        capture_output=True, text=True, env=env, timeout=300,
    )


class TestKvConfig:
    def test_parse_ignores_comments_and_blanks(self):
        text = "# header\n\na.b = 3  # trailing\nc.d=x=y\n"
        assert kv.parse_config_text(text) == {"a.b": "3", "c.d": "x=y"}

    def test_parse_rejects_bare_words_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            kv.parse_config_text("a=1\nnonsense\n")

    def test_missing_file_becomes_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            kv.load_config(tmp_path / "absent.cfg")

    def test_format_is_sorted_and_reparsable(self):
        cfg = {"b.key": "2", "a.key": "1"}
        text = kv.format_config(cfg)
        assert text == "a.key=1\nb.key=2\n"
        assert kv.parse_config_text(text) == cfg

    @pytest.mark.parametrize("raw,expect", [("1", True), ("true", True), ("off", False)])
    def test_bool_spellings(self, raw, expect):
        assert kv.get_bool(raw, "k") is expect

    def test_bool_rejects_garbage(self):
        with pytest.raises(ValueError, match="boolean"):
            kv.get_bool("maybe", "k")


# how the CLI sets each field of TrainConfig, ViTConfig (vit.*) and
# AugConfig (aug.*): by an --override pair, by --seed ("seed"), or by the
# dataset's image shape, a (side, channels) pair. Each way changes its field
# from what the defaults build. A field that no caller can set fails
# test_every_config_field_is_set_by_the_cli until it is listed here.
CLI_SETS = {
    "vit.image_side": (16, 3),
    "vit.patch_side": "model.patch_side=4",
    "vit.channels": (8, 1),
    "vit.depth": "model.depth=3",
    "vit.heads": "model.heads=4",
    "vit.dim": "model.dim=64",
    "vit.head_hidden": "model.head_hidden=128",
    "vit.head_out": "model.head_out=32",
    "aug.crop_area": "aug.crop_area_min=0.2",
    "aug.flip_prob": "aug.flip_prob=0.3",
    "aug.jitter_prob": "aug.jitter_prob=0.5",
    "aug.grayscale_prob": "aug.grayscale_prob=0.1",
    "aug.blur_prob": "aug.blur_prob2=0.3",
    "aug.solarize_prob": "aug.solarize_prob2=0.3",
    "aug.color_ops": "aug.color_ops=false",
    "epochs": "train.epochs=5",
    "warmup_epochs": "train.warmup_epochs=2",
    "base_lr": "train.base_lr=0.01",
    "batch_size": "train.batch_size=16",
    "mix_count": "train.mix_count=2",
    "temperature": "train.temperature=0.1",
    "weight_decay": "train.wd_end=0.3",
    "momentum_mu": "train.mu_start=0.99",
    "grad_clip": "train.grad_clip=1.0",
    "seed": "seed",
    "precision": "train.precision=f64",
    "checkpoint_every": "train.checkpoint_every=2",
    "loss_weights": "train.w_oto=0.5",
}


def cli_train_config(overrides=(), seed=0, shape=(8, 3)) -> dict:
    """The fields of the TrainConfig that the CLI builds, nested ones named
    as in ``aug.flip_prob``."""
    cfg = cli.resolve_config(None, list(overrides))
    vit = cli._vit_config(cfg, *shape)
    built = dataclasses.asdict(cli._train_config(cfg, seed, vit))
    for k in ("vit", "aug"):
        built |= {f"{k}.{n}": v for n, v in built.pop(k).items()}
    return built


class TestResolveConfig:
    def test_defaults_when_nothing_given(self):
        cfg = cli.resolve_config(None, [])
        assert cfg == cli.DEFAULTS

    def test_file_overrides_defaults(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("train.epochs=5\ndata.classes=4\n")
        cfg = cli.resolve_config(str(f), [])
        assert cfg["train.epochs"] == 5
        assert cfg["data.classes"] == 4
        assert cfg["train.batch_size"] == cli.DEFAULTS["train.batch_size"]

    def test_override_beats_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("train.epochs=5\n")
        cfg = cli.resolve_config(str(f), ["train.epochs=9"])
        assert cfg["train.epochs"] == 9

    def test_values_typed_by_default(self):
        cfg = cli.resolve_config(
            None,
            [
                "train.base_lr=0.01",
                "aug.color_ops=false",
                "train.epochs=3",
                "model.preset=tiny",
            ],
        )
        assert cfg["train.base_lr"] == 0.01
        assert cfg["aug.color_ops"] is False
        assert cfg["train.epochs"] == 3
        assert cfg["model.preset"] == "tiny"

    def test_defaults_are_the_trainer_defaults(self):
        # every train.* and aug.* default builds the TrainConfig that leaves
        # all but the run length at the trainer's defaults
        vit = enc.vit_micro(8)
        built = cli._train_config(cli.resolve_config(None, []), 0, vit)
        assert built == tr.TrainConfig(vit, epochs=10, warmup_epochs=1)
        # a literal, not a lookup: importing the CLI must not load numpy
        assert cli.DEFAULTS["train.precision"] == "f32"

    def test_every_config_field_is_set_by_the_cli(self):
        base = cli_train_config()
        assert set(CLI_SETS) == set(base)
        for name, way in CLI_SETS.items():
            if way == "seed":
                changed = cli_train_config(seed=5)
            elif isinstance(way, tuple):
                changed = cli_train_config(shape=way)
            else:
                changed = cli_train_config([way])
            assert changed[name] != base[name], name

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            cli.resolve_config(None, ["train.lr=1"])

    def test_bad_type_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            cli.resolve_config(None, ["train.epochs=ten"])

    def test_override_without_assignment_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            cli.resolve_config(None, ["   "])


class TestMainPlumbing:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["oracle-check", "--frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, capsys):
        assert cli.main(["oracle-check", "--override", "no.such=1"]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_range_enforced(self, seed, capsys):
        assert cli.main(["oracle-check", "--seed", seed]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_thread_env_validated(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.THREAD_ENV, "many")
        assert cli.main(["oracle-check"]) == 2
        assert cli.THREAD_ENV in capsys.readouterr().err
        monkeypatch.setenv(cli.THREAD_ENV, "0")
        assert cli.main(["oracle-check"]) == 2
        assert cli.THREAD_ENV in capsys.readouterr().err

    def test_thread_env_sets_blas_knobs_without_clobbering(self, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        monkeypatch.setenv(cli.THREAD_ENV, "2")
        cli.apply_thread_env()
        assert os.environ["OMP_NUM_THREADS"] == "7"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert os.environ["MKL_NUM_THREADS"] == "2"

    def test_train_config_contract_is_usage_error(self, tmp_path, capsys):
        code = quiet_main(
            ["pretrain", "--out", str(tmp_path), "--override", "train.grad_clip=-1"]
        )
        assert code == 2
        assert "grad clip" in capsys.readouterr().err
        assert not (tmp_path / "train_log.csv").exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ("train.checkpoint_every=-1", "checkpoint every must be >= 0"),
            ("train.normalize_mix_weights=true", "unknown config key"),
            ("model.preset=small", "unknown model.preset 'small'"),
            ("model.heads=5", "token dim 32 is not divisible by head count 5"),
            ("data.kind=cifar10", "data.kind=cifar10 requires data.path"),
            ("aug.crop_area_max=50", "crop_area must be a non-empty range in (0, 1]"),
        ],
    )
    def test_bad_pretrain_setting_is_usage_error(
        self, tmp_path, capsys, override, message
    ):
        code = quiet_main(["pretrain", "--out", str(tmp_path), "--override", override])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "train_log.csv").exists()

    def test_pretrain_on_cifar_binaries_with_the_tiny_preset(self, tmp_path):
        data = tmp_path / "data_batch_1.bin"
        ds.export_cifar_binary(ds.synth_blobs(2, 4, 32, True, seed=0), data)
        model = dict(patch_side=8, depth=1, dim=12, head_hidden=16, head_out=8)
        overrides = [f"model.{k}={v}" for k, v in model.items()] + [
            "model.preset=tiny", "data.kind=cifar10", f"data.path={data}",
            "train.batch_size=4", "train.epochs=1", "train.warmup_epochs=0",
            "train.mix_count=2",
        ]
        out = tmp_path / "run"
        args = ["pretrain", "--out", str(out)]
        for item in overrides:
            args += ["--override", item]
        assert quiet_main(args) == 0
        vit_cfg, _blobs, meta = enc.read_checkpoint(out / "checkpoint_final.bin")
        assert vit_cfg == enc.vit_tiny(32, 3, **model)
        assert meta["step"] == 2

    def test_importing_the_cli_loads_no_numpy(self):
        # PATCHMIX_THREADS only takes effect if numpy is not loaded yet
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys; sys.path.insert(0, sys.argv[1]); "
                "import patchmix, patchmix.cli; "
                "print(patchmix.cli.__file__); print('numpy' in sys.modules)",
                src,
            ],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        where, numpy_loaded = proc.stdout.split()
        assert Path(where).resolve() == Path(cli.__file__).resolve()
        assert numpy_loaded == "False"

    def test_resolved_config_echoed_on_every_run(self, capsys):
        code = cli.main(
            ["grad-check", "--seed", "5", "--override", "check.images=3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "# resolved config" in out
        assert "check.images=3" in out
        assert "seed=5" in out
        assert "train.epochs=10" in out

    def test_out_dir_required_where_files_are_written(self, capsys):
        assert cli.main(["mix-demo"]) == 2
        assert "--out" in capsys.readouterr().err


class TestOracleCheck:
    def test_passes_and_reports_instance_count(self, capsys):
        assert cli.main(["oracle-check"]) == 0
        out = capsys.readouterr().out
        assert "oracle-check: pass" in out
        assert "correctly rejected" in out

    def test_detects_planted_routing_fault(self, monkeypatch, capsys):
        real = mx.plan_mix

        def skewed(config, perm):
            plan = real(config, perm)
            return dataclasses.replace(
                plan, source_map=np.roll(plan.source_map, 1, axis=0)
            )

        monkeypatch.setattr(mx, "plan_mix", skewed)
        assert cli.main(["oracle-check"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "N=" in out and "perm=" in out  # counterexample is printed

    def test_clean_run_writes_no_user_warning(self):
        proc = run_cli_process(["oracle-check"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "oracle-check: pass" in proc.stdout
        assert proc.stderr == ""


class TestGradCheck:
    def test_passes_within_tolerance(self, capsys):
        assert cli.main(["grad-check"]) == 0
        out = capsys.readouterr().out
        for name in ("l_mto", "l_mtm", "l_oto", "l_total"):
            assert f"grad-check {name}" in out
        assert "xi_branch: gradients identically zero ok" in out
        assert "FAIL" not in out

    def test_default_run_writes_nothing_to_stderr(self):
        # its 4 images at M=3 wrap the mix-to-mix window, which is no fault
        proc = run_cli_process(["grad-check"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "xi_branch: gradients identically zero ok" in proc.stdout
        assert proc.stderr == ""

    def test_precision_setting_changes_nothing_but_its_echo(self, capsys):
        # grad-check runs in f64 whatever train.precision says
        outputs = []
        for precision in ("f32", "f64"):
            assert cli.main(
                ["grad-check", "--override", f"train.precision={precision}"]
            ) == 0
            outputs.append(capsys.readouterr().out.splitlines())
        f32, f64 = outputs
        assert len(f32) == len(f64)
        assert [(a, b) for a, b in zip(f32, f64) if a != b] == [
            ("train.precision=f32", "train.precision=f64")
        ]
        assert not any("warning" in line for line in f32)

    def test_detects_gradient_leak_into_momentum_branch(self, monkeypatch, capsys):
        monkeypatch.setattr(ad, "stop_gradient", lambda t: t)
        assert cli.main(["grad-check"]) == 1
        assert "nonzero gradient leaked FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "override,message",
        [
            ("check.step=0", "finite-difference step must be a finite positive real"),
            ("check.step=-1e-3", "finite-difference step must be"),
            ("check.step=nan", "finite-difference step must be"),
            ("check.step=inf", "finite-difference step must be"),
            ("check.tolerance=-1", "check.tolerance must be a finite non-negative"),
            ("check.tolerance=nan", "check.tolerance must be"),
            ("check.tolerance=inf", "check.tolerance must be"),
            # one image makes every loss gradient zero, so every check passes
            ("check.images=1", "check.images must be >= 2, got 1"),
            ("check.images=0", "check.images must be >= 2, got 0"),
        ],
    )
    def test_degenerate_step_or_tolerance_is_a_usage_error(
        self, capsys, override, message
    ):
        # exit 1 is a failed verification; a value no check can use is 2
        assert cli.main(["grad-check", "--override", override]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert not any(
            line.startswith("grad-check ") for line in captured.out.splitlines()
        )


class TestMixDemo:
    def run_demo(self, out_dir, *extra):
        args = [
            "mix-demo",
            "--out",
            str(out_dir),
            "--override",
            "demo.format=ppm",
            "--override",
            "data.train_per_class=4",
        ]
        args.extend(extra)
        return quiet_main(args)

    def test_writes_all_stages_and_plan(self, tmp_path, capsys):
        assert self.run_demo(tmp_path) == 0
        for stem in ("orig", "shuffled", "smix", "mixed"):
            for i in range(3):
                assert (tmp_path / f"{stem}_{i:03d}.ppm").exists()
        perm = po.sample_permutation(16, np.random.default_rng(0))
        plan = mx.plan_mix(mx.MixConfig(3, 3, 16), perm)
        assert (tmp_path / "plan.txt").read_text() == mx.plan_to_text(plan)

    def test_single_group_mix_equals_original(self, tmp_path):
        assert self.run_demo(tmp_path, "--override", "demo.groups=1") == 0
        for i in range(3):
            orig = (tmp_path / f"orig_{i:03d}.ppm").read_bytes()
            mixed = (tmp_path / f"mixed_{i:03d}.ppm").read_bytes()
            assert orig == mixed

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_demo(a, "--seed", "11") == 0
        assert self.run_demo(b, "--seed", "11") == 0
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_default_run_writes_nothing_to_stderr(self, tmp_path):
        # its 3 images at M=3 wrap the mix-to-mix window, which is no fault
        proc = run_cli_process(["mix-demo", "--out", str(tmp_path)])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert f"mix-demo: wrote 13 files to {tmp_path}" in proc.stdout
        assert proc.stderr == ""

    def test_bad_format_rejected(self, tmp_path, capsys):
        code = self.run_demo(tmp_path, "--override", "demo.format=gif")
        assert code == 2
        assert "demo.format" in capsys.readouterr().err


# the run of the ``trained`` fixture: 2 epochs of 2 steps, 1 of warmup
TRAINED_OVERRIDES = [
    "--override",
    "train.epochs=2",
    "--override",
    "train.warmup_epochs=1",
    "--override",
    "train.batch_size=8",
    "--override",
    "train.mix_count=2",
    "--override",
    "data.train_per_class=8",
    "--override",
    "data.val_per_class=4",
]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny pretrain run shared by the evaluation command tests."""
    out = tmp_path_factory.mktemp("run")
    args = ["pretrain", "--out", str(out)] + TRAINED_OVERRIDES
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    assert code == 0
    ckpt = out / "checkpoint_final.bin"
    assert ckpt.exists()
    return out, ckpt, buf.getvalue()


def with_config(src, dst, change):
    """Copy the checkpoint ``src`` to ``dst`` with ``change`` merged into
    its header's backbone config, under a valid checksum."""
    header, body = cb.split(src.read_bytes())
    header["config"] |= change
    dst.write_bytes(cb.assemble(header, body))


def eval_overrides(ckpt):
    return [
        "--override",
        f"eval.checkpoint={ckpt}",
        "--override",
        "data.train_per_class=8",
        "--override",
        "data.val_per_class=4",
        "--override",
        "eval.k=5",
    ]


@pytest.fixture
def no_features(monkeypatch):
    """Fail any feature extraction."""
    from patchmix import evaluation as ev

    def refuse(*args, **kwargs):
        raise AssertionError("features were extracted")

    monkeypatch.setattr(ev, "extract_features", refuse)


@pytest.fixture
def no_checkpoint(monkeypatch):
    """Fail any read of an encoder checkpoint, and so any feature extraction."""

    def refuse(*args, **kwargs):
        raise AssertionError("the checkpoint was read")

    monkeypatch.setattr(tr, "encoder_from_checkpoint", refuse)


class TestTrainAndEval:
    def test_pretrain_prints_checkpoint_and_logs(self, trained):
        out, ckpt, log = trained
        assert (out / "train_log.csv").exists()
        assert f"checkpoint={ckpt}" in log.splitlines()

    def test_eval_knn_reports_accuracy(self, trained, tmp_path, capsys):
        _out, ckpt, _log = trained
        code = cli.main(
            ["eval-knn", "--out", str(tmp_path)] + eval_overrides(ckpt)
        )
        assert code == 0
        out_text = capsys.readouterr().out
        line = [l for l in out_text.splitlines() if l.startswith("knn_accuracy=")]
        assert len(line) == 1
        acc = float(line[0].split("=", 1)[1])
        assert 0.0 <= acc <= 1.0
        per_class = (tmp_path / "knn_per_class.csv").read_text().splitlines()
        assert per_class[0] == "class,count,correct,accuracy"
        assert len(per_class) == 1 + 2

    @pytest.mark.parametrize("tau", ["0", "-0.07", "nan", "inf", "0.001"])
    def test_eval_knn_rejects_tau_before_extracting_features(
        self, trained, capsys, no_checkpoint, tau
    ):
        _out, ckpt, _log = trained
        args = ["eval-knn", "--override", f"eval.tau={tau}"] + eval_overrides(ckpt)
        assert quiet_main(args) == 2
        assert "error: tau must be finite and at least 0.0015" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-5"])
    def test_eval_knn_rejects_k_below_one_before_reading_the_checkpoint(
        self, trained, capsys, no_checkpoint, k
    ):
        _out, ckpt, _log = trained
        args = ["eval-knn"] + eval_overrides(ckpt) + ["--override", f"eval.k={k}"]
        assert quiet_main(args) == 2
        assert f"error: k must be an integer in [1, inf], got {k}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("k", ["17", "1000"])
    def test_eval_knn_rejects_k_above_the_training_set_before_extracting_features(
        self, trained, capsys, no_features, k
    ):
        _out, ckpt, _log = trained  # eval_overrides' training set holds 16 images
        args = ["eval-knn"] + eval_overrides(ckpt) + ["--override", f"eval.k={k}"]
        assert quiet_main(args) == 2
        assert f"error: k must be an integer in [1, 16], got {k}" in (
            capsys.readouterr().err
        )

    def test_eval_linear_reports_accuracy(self, trained, capsys):
        _out, ckpt, _log = trained
        code = cli.main(
            ["eval-linear", "--override", "eval.epochs=5"] + eval_overrides(ckpt)
        )
        assert code == 0
        out_text = capsys.readouterr().out
        assert any(
            l.startswith("linear_accuracy=") for l in out_text.splitlines()
        )

    @pytest.mark.parametrize(
        "override,message",
        [
            ("eval.epochs=0", "probe epochs must be an integer >= 1, got 0"),
            ("eval.epochs=-3", "probe epochs must be an integer >= 1, got -3"),
            ("eval.lr=nan", "probe lr must be a finite positive real, got nan"),
            ("eval.lr=-1", "probe lr must be a finite positive real, got -1.0"),
            ("eval.lr=0", "probe lr must be a finite positive real, got 0.0"),
            ("eval.lr=inf", "probe lr must be a finite positive real, got inf"),
        ],
    )
    def test_eval_linear_rejects_epochs_and_lr_out_of_range(
        self, trained, capsys, no_checkpoint, override, message
    ):
        _out, ckpt, _log = trained
        code = cli.main(["eval-linear", "--override", override] + eval_overrides(ckpt))
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "linear_accuracy=" not in captured.out

    def test_attn_dump_writes_maps_and_csv(self, trained, tmp_path):
        _out, ckpt, _log = trained
        code = quiet_main(
            ["attn-dump", "--out", str(tmp_path), "--override", "demo.format=ppm"]
            + eval_overrides(ckpt)
        )
        assert code == 0
        csv_lines = (tmp_path / "attn.csv").read_text().splitlines()
        assert csv_lines[0] == "head,row,col,value"
        heads = {int(l.split(",")[0]) for l in csv_lines[1:]}
        for h in heads:
            assert (tmp_path / f"attn_head{h}.ppm").exists()

    @pytest.mark.parametrize(
        "override,message",
        [
            ("demo.format=jpg", "demo.format must be png or ppm, got 'jpg'"),
            ("eval.index=8", "eval.index 8 outside dataset of 8"),
            ("eval.index=-1", "eval.index -1 outside dataset of 8"),
        ],
    )
    def test_attn_dump_rejects_format_and_index_before_reading_the_checkpoint(
        self, trained, tmp_path, capsys, no_checkpoint, override, message
    ):
        _out, ckpt, _log = trained
        out = tmp_path / "attn"
        code = quiet_main(
            ["attn-dump", "--out", str(out)]
            + eval_overrides(ckpt) + ["--override", override]
        )
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "change, differs",
        [
            # the four checks this rule replaced: backbone, precision, seed
            # and run length
            (["--override", "model.depth=3"], "vit.depth 2 recorded, 3 configured"),
            (["--override", "train.precision=f64"],
             "precision f32 recorded, f64 configured"),
            (["--seed", "1"], "seed 0 recorded, 1 configured"),
            (["--override", "train.epochs=4"], "epochs 2 recorded, 4 configured"),
            # fields that no check covered
            (["--override", "aug.flip_prob=0.3"],
             "aug.flip_prob 0.5 recorded, 0.3 configured"),
            (["--override", "train.w_oto=0.5"],
             "loss_weights [1.0, 1.0, 1.0] recorded, [1.0, 1.0, 0.5] configured"),
            # other images of the same size
            (["--override", "data.noise_sigma=0.2"], "data "),
        ],
        ids=["backbone", "precision", "seed", "epochs", "aug", "w_oto", "data"],
    )
    def test_resume_of_another_run_is_usage_error(
        self, trained, tmp_path, capsys, change, differs
    ):
        _out, ckpt, _log = trained  # the default seed, 0, and precision, f32
        out = tmp_path / "run"
        code = quiet_main(
            ["pretrain", "--out", str(out), "--override", f"train.resume={ckpt}"]
            + TRAINED_OVERRIDES + change
        )
        assert code == 2
        err = capsys.readouterr().err.strip()
        head, listed = err.split("; ", 1)
        assert head == f"error: {ckpt}: checkpoint of another run"
        assert listed.startswith(differs) and "; " not in listed
        assert not (out / "train_log.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, by design
    def test_diverging_run_is_usage_error(self, tmp_path, capsys):
        code = quiet_main(
            ["pretrain", "--out", str(tmp_path)]
            + TRAINED_OVERRIDES + ["--override", "train.base_lr=1e200"]
        )
        assert code == 2
        assert "the run has diverged" in capsys.readouterr().err
        assert not (tmp_path / "checkpoint_final.bin").exists()

    @pytest.mark.parametrize("fault", ["flipped_byte", "short_prefix", "no_config"])
    def test_bad_checkpoint_is_usage_error(self, trained, tmp_path, capsys, fault):
        _out, ckpt, _log = trained
        message = {
            "flipped_byte": "checksum mismatch",
            "short_prefix": "truncated checkpoint header",
            "no_config": "malformed checkpoint header: KeyError('config')",
        }[fault]
        raw = bytearray(ckpt.read_bytes())
        if fault == "flipped_byte":
            raw[-100] ^= 0x01  # inside the last blob
        elif fault == "short_prefix":
            raw = raw[:12]
        else:
            raw = cb.assemble({"version": 2, "meta": {}, "blobs": []})
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw)
        assert quiet_main(["eval-knn"] + eval_overrides(bad)) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: {message}" in err

    def test_version_1_checkpoint_is_rejected(self, tmp_path, capsys):
        # a version-1 file: a header with bn_momentum, and no checksum
        fields = dataclasses.asdict(enc.vit_micro(8)) | {"bn_momentum": 0.9}
        header = json.dumps(
            {"version": 1, "config": fields, "meta": {}, "blobs": []}
        ).encode()
        old = tmp_path / "v1.bin"
        old.write_bytes(
            enc.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(header)) + header
        )
        message = f"{old}: unsupported checkpoint version 1"
        with pytest.raises(ValueError) as err:
            enc.read_checkpoint(old)
        assert str(err.value) == message
        assert quiet_main(["eval-knn"] + eval_overrides(old)) == 2
        assert f"error: {message}" in capsys.readouterr().err
        out = tmp_path / "run"
        code = quiet_main(["pretrain", "--out", str(out),
                           "--override", f"train.resume={old}"] + TRAINED_OVERRIDES)
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / "train_log.csv").exists()

    @pytest.mark.parametrize(
        "fault", ["untrainable_header", "missing_block", "fixed_constants_as_fields"]
    )
    def test_checkpoint_that_cannot_build_its_encoder_is_usage_error(
        self, trained, tmp_path, capsys, fault
    ):
        _out, ckpt, _log = trained
        bad = tmp_path / "bad.bin"
        if fault == "missing_block":
            vit_cfg, blobs, meta = enc.read_checkpoint(ckpt)
            theta = enc.Packed(enc.layout(vit_cfg), blobs["theta"])
            blobs["theta"] = np.concatenate(
                [v.ravel() for k, v in theta.items() if not k.startswith("blocks.1.")]
            )
            enc.write_checkpoint(bad, vit_cfg, blobs, meta)
            message = "the checkpoint's 'theta' set has shape"
        elif fault == "untrainable_header":
            with_config(ckpt, bad, {"heads": 5})
            message = (
                "malformed checkpoint header: "
                "ValueError('token dim 32 is not divisible by head count 5')"
            )
        else:  # written while the MLP ratio and norm offsets were fields
            with_config(ckpt, bad, {"mlp_ratio": 4.0, "ln_eps": 1e-6, "bn_eps": 1e-5})
            message = (
                "malformed checkpoint header: TypeError(\"ViTConfig.__init__() got "
                "an unexpected keyword argument 'mlp_ratio'\")"
            )
        assert quiet_main(["eval-knn"] + eval_overrides(bad)) == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err

    def test_resume_from_checkpoint_without_state_meta_is_usage_error(
        self, trained, tmp_path, capsys
    ):
        _out, ckpt, _log = trained
        vit_cfg, blobs, _meta = enc.read_checkpoint(ckpt)
        bad = tmp_path / "no_meta.bin"
        enc.write_checkpoint(bad, vit_cfg, blobs, {})
        out = tmp_path / "run"
        code = quiet_main(
            ["pretrain", "--out", str(out)]
            + ["--override", f"train.resume={bad}"]
            + ["--override", "data.train_per_class=8"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: checkpoint meta lacks step, epoch" in err
        assert not (out / "train_log.csv").exists()

    @pytest.mark.parametrize(
        "fault", ["theta", "xi", "adam_m", "adam_v", "shape", "non_finite", "f64"]
    )
    def test_resume_from_checkpoint_with_a_bad_set_is_usage_error(
        self, trained, tmp_path, capsys, fault
    ):
        _out, ckpt, _log = trained
        vit_cfg, blobs, meta = enc.read_checkpoint(ckpt)
        if fault == "shape":
            blobs["adam_v"] = blobs["adam_v"][:-1]
        elif fault == "non_finite":
            blobs["theta"] = np.full_like(blobs["theta"], np.nan)
        elif fault == "f64":  # blobs of another precision than the run's f32
            blobs = {k: v.astype(np.float64) for k, v in blobs.items()}
        else:
            del blobs[fault]
        bad = tmp_path / "bad.bin"
        enc.write_checkpoint(bad, vit_cfg, blobs, meta)
        out = tmp_path / "run"
        code = quiet_main(
            ["pretrain", "--out", str(out), "--override", f"train.resume={bad}"]
            + TRAINED_OVERRIDES
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: " in err
        if fault == "f64":
            assert "'theta' set is float64, but the run computes in float32" in err
        assert not (out / "train_log.csv").exists()

    def test_checkpoint_of_per_name_blobs_is_usage_error(
        self, trained, tmp_path, capsys
    ):
        """The format before each set became one blob, ``theta.<name>`` and
        so on, has no 'theta' blob."""
        _out, ckpt, _log = trained
        vit_cfg, blobs, meta = enc.read_checkpoint(ckpt)
        bad = tmp_path / "per_name.bin"
        enc.write_checkpoint(bad, vit_cfg, cb.per_name(vit_cfg, blobs), meta)
        message = f"error: {bad}: checkpoint holds no 'theta' parameter set"
        assert quiet_main(["eval-knn"] + eval_overrides(bad)) == 2
        assert message in capsys.readouterr().err
        out = tmp_path / "run"
        code = quiet_main(
            ["pretrain", "--out", str(out), "--override", f"train.resume={bad}"]
            + TRAINED_OVERRIDES
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "train_log.csv").exists()

    def test_eval_without_checkpoint_is_usage_error(self, capsys):
        assert cli.main(["eval-knn"]) == 2
        assert "eval.checkpoint" in capsys.readouterr().err
