import dataclasses
import json
import math
import re
import struct
import zlib

import numpy as np
import pytest

from patchmix import autodiff as ad
from patchmix import encoder as enc
from patchmix import patch_ops as po


def micro_params(seed: int = 0) -> enc.EncoderParams:
    return enc.init_encoder(enc.vit_micro(8), np.random.default_rng(seed))


def micro_batch(n: int = 2, seed: int = 1) -> po.PatchBatch:
    rng = np.random.default_rng(seed)
    return po.patchify(po.ImageBatch(rng.random((n, 3, 8, 8))), 2)


def taped(params, tape: ad.Tape) -> dict:
    """The parameters as leaves of ``tape``; ``enc.bind`` makes untaped ones."""
    return {k: tape.var(v) for k, v in params.items()}


def reference_trunc_normal(rng: np.random.Generator, out: np.ndarray, std: float) -> int:
    """The full-rescan truncated normal: after every redraw round it scans
    the whole tensor again. Draws in a 64-bit buffer, copies it into ``out``
    and returns the number of redraw rounds."""
    draw = np.empty(out.shape)
    rng.standard_normal(out=draw)
    draw *= std
    rounds = 0
    while (bad := np.abs(draw) > 2.0 * std).any():
        draw[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        rounds += 1
    out[...] = draw
    return rounds


def raw_checkpoint(header: dict) -> bytes:
    """A version-2 checkpoint file's bytes, written by hand, with no blobs."""
    head = json.dumps(header).encode()
    raw = enc.CHECKPOINT_MAGIC + struct.pack("<II", 2, len(head)) + head
    return raw + struct.pack("<I", zlib.crc32(raw))


class TestViTConfig:
    def test_presets(self):
        tiny = enc.vit_tiny(32)
        assert (tiny.depth, tiny.heads, tiny.dim) == (12, 3, 192)
        micro = enc.vit_micro(8)
        assert (micro.depth, micro.heads, micro.dim) == (2, 2, 32)
        assert micro.head_hidden == 256 and micro.head_out == 64

    def test_derived_sizes(self):
        cfg = enc.vit_micro(8)
        assert cfg.grid_side == 4 and cfg.tokens == 16
        assert cfg.patch_dim == 12 and cfg.head_dim == 16

    def test_validate_rejects_bad_divisibility(self):
        with pytest.raises(ValueError):
            enc.vit_micro(9)
        with pytest.raises(ValueError):
            enc.vit_micro(8, dim=30, heads=4)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(depth=0), "depth must be >= 1"),
            (dict(heads=0), "heads must be >= 1"),
            (dict(head_out=0), "head widths"),
            (dict(channels=0), "channels must be >= 1"),
            (dict(mlp_ratio=0.0), "mlp width"),
            (dict(mlp_ratio=math.nan), "mlp width"),
            (dict(mlp_ratio=math.inf), "mlp width"),
            (dict(ln_eps=-1.0), "ln_eps must be finite and positive"),
            (dict(ln_eps=math.nan), "ln_eps must be finite and positive"),
            (dict(bn_eps=0.0), "bn_eps must be finite and positive"),
            (dict(bn_eps=math.inf), "bn_eps must be finite and positive"),
        ],
        ids=[
            "depth_0", "heads_0", "head_out_0", "channels_0", "mlp_ratio_0",
            "mlp_ratio_nan", "mlp_ratio_inf", "ln_eps_negative", "ln_eps_nan",
            "bn_eps_0", "bn_eps_inf",
        ],
    )
    def test_untrainable_geometry_rejected_at_construction(self, change, message):
        fields = dataclasses.asdict(enc.vit_micro(8)) | change
        with pytest.raises(ValueError, match=message):
            enc.ViTConfig(**fields)

    def test_preset_overrides(self):
        cfg = enc.vit_micro(16, depth=3, dim=64)
        assert cfg.depth == 3 and cfg.dim == 64 and cfg.image_side == 16


class TestInit:
    def test_parameter_names_and_shapes(self):
        params = micro_params()
        names = set(params.params)
        assert "patch_embed.w" in names and "cls_token" in names
        assert "blocks.0.attn.qkv.w" in names and "blocks.1.mlp.fc2.b" in names
        assert "proj.fc3.w" in names and "pred.fc2.w" in names
        # head linears carry no bias entries; BN provides the shift
        assert not any(n.startswith(("proj", "pred")) and n.endswith(".b") for n in names)
        assert params.params["pos_embed"].shape == (1, 17, 32)
        assert params.params["cls_token"].shape == (1, 1, 32)

    def test_truncated_normal_bounded(self):
        params = micro_params(seed=5)
        w = params.params["blocks.0.attn.qkv.w"]
        assert np.abs(w).max() <= 2.0 * 0.02 + 1e-12

    def test_layout_is_the_param_table(self):
        cfg = enc.vit_micro(8)
        params = enc.init_encoder(cfg, np.random.default_rng(0)).params
        table = enc.param_table(cfg)
        assert list(params.shapes.items()) == [
            (name, shape) for name, (shape, _) in table.items()
        ]
        for name, (_, fill) in table.items():
            if fill is not None:
                assert np.all(params[name] == fill), name

    def test_deterministic_under_seed(self):
        a, b = micro_params(seed=3), micro_params(seed=3)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize(
        "config",
        [enc.vit_micro(8), enc.vit_tiny(16, depth=2, head_hidden=1024)],
        ids=["micro", "tiny"],
    )
    def test_equals_full_rescan_reference_bit_for_bit(self, config, dtype):
        for seed in range(4):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            flat = enc.init_encoder(config, rng, dtype).params.flat
            ref = enc.Packed(enc.layout(config), dtype=dtype)
            for name, (_, fill) in enc.param_table(config).items():
                if fill is None:
                    reference_trunc_normal(ref_rng, ref[name], 0.02)
                else:
                    ref[name].fill(fill)
            assert flat.tobytes() == ref.flat.tobytes(), seed
            assert rng.bit_generator.state == ref_rng.bit_generator.state, seed

    def test_redraw_rounds_on_a_large_tensor(self):
        out, ref = np.empty((256, 256)), np.empty((256, 256))
        rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
        enc._trunc_normal(rng, out, 0.02)
        rounds = reference_trunc_normal(ref_rng, ref, 0.02)
        assert rounds >= 3  # the path that redraws a redrawn entry runs
        assert out.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.abs(out).max() <= 2.0 * 0.02

    def test_non_contiguous_f64_view_gets_the_reference_values(self):
        base = np.full((64, 96), 7.0)
        view = base[:, ::2]  # every other column, not C-contiguous
        ref = np.empty(view.shape)
        enc._trunc_normal(np.random.default_rng(1), view, 0.02)
        reference_trunc_normal(np.random.default_rng(1), ref, 0.02)
        np.testing.assert_array_equal(view, ref)
        assert np.all(base[:, 1::2] == 7.0)  # the columns between are untouched


class TestForward:
    def test_backbone_shape_and_determinism(self):
        params = micro_params()
        tv = enc.bind(params.params)
        pb = micro_batch(3)
        h1 = enc.forward_backbone(params.config, tv, pb)
        h2 = enc.forward_backbone(params.config, tv, pb)
        assert h1.data.shape == (3, 32)
        np.testing.assert_array_equal(h1.data, h2.data)

    def test_attention_capture(self):
        params = micro_params()
        tv = enc.bind(params.params)
        pb = micro_batch(2)
        _, maps = enc.forward_backbone(
            params.config, tv, pb, capture_attention=True
        )
        assert len(maps) == params.config.depth
        assert maps[0].shape == (2, 2, 17, 17)
        np.testing.assert_allclose(maps[0].sum(axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_class_token_only_last_block_matches_full_trunk(self, depth):
        # capturing attention runs every token through every block
        cfg = enc.vit_micro(8, depth=depth)
        params = enc.init_encoder(cfg, np.random.default_rng(depth))
        w = np.random.default_rng(5).standard_normal((3, cfg.dim))
        reps, grads = [], []
        for capture in (False, True):
            tape = ad.Tape()
            tv = taped(params.params, tape)
            out = enc.forward_backbone(cfg, tv, micro_batch(3), capture)
            rep = out[0] if capture else out
            tape.backward(ad.asum(ad.mul(rep, w)))
            reps.append(rep.data)
            grads.append({k: tape.grad(t) for k, t in tv.items()})
        np.testing.assert_allclose(reps[0], reps[1], rtol=1e-12, atol=1e-14)
        for k in grads[1]:
            np.testing.assert_allclose(
                grads[0][k], grads[1][k], rtol=1e-10, atol=1e-13, err_msg=k
            )

    def test_heads_shapes(self):
        params = micro_params()
        tape = ad.Tape()
        tv = taped(params.params, tape)
        rep = enc.forward_backbone(params.config, tv, micro_batch(4))
        z, h = enc.forward_heads(params.config, tv, rep)
        assert z.data.shape == (4, 64) and h.data.shape == (4, 64)

    def test_gradients_reach_every_parameter(self):
        params = micro_params()
        tape = ad.Tape()
        tv = taped(params.params, tape)
        rep = enc.forward_backbone(params.config, tv, micro_batch(3))
        z, h = enc.forward_heads(params.config, tv, rep)
        tape.backward(ad.asum(ad.add(ad.asum(z), ad.asum(h))))
        zero = [
            name
            for name, t in tv.items()
            if not np.any(tape.grad(t))
            # final BN layers have no affine params; every listed name must
            # still receive some gradient
        ]
        assert zero == [], f"no gradient reached: {zero}"

    def test_heads_leave_the_encoder_unchanged(self):
        params = micro_params()

        def arrays():
            sets = [getattr(params, f.name) for f in dataclasses.fields(params)]
            return [(k, v.tobytes()) for p in sets[1:] for k, v in p.items()]

        before = arrays()
        for tv in (enc.bind(params.params), taped(params.params, ad.Tape())):
            rep = enc.forward_backbone(params.config, tv, micro_batch(4))
            enc.forward_heads(params.config, tv, rep)
            enc.forward_project(params.config, tv, rep)
            assert arrays() == before

    def test_batch_norm_uses_batch_statistics(self):
        params = micro_params()
        tv = enc.bind(params.params)
        rep = enc.forward_backbone(params.config, tv, micro_batch(8))
        z = enc.forward_project(params.config, tv, rep).data
        # the last projection BN has no affine: zero mean and, but for eps,
        # unit variance over the batch
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.all((z.var(axis=0) < 1.0) & (z.var(axis=0) > 0.99))


class TestMomentum:
    def test_momentum_copy_excludes_prediction_head(self):
        params = micro_params()
        twin = enc.init_momentum(params)
        assert not any(k.startswith("pred.") for k in twin.params)
        for k, v in twin.params.items():
            np.testing.assert_array_equal(v, params.params[k])
            assert v is not params.params[k]

    def test_ema_mu_one_is_bitwise_fixpoint(self):
        params = micro_params()
        twin = enc.init_momentum(params)
        snap = {k: v.copy() for k, v in twin.params.items()}
        # push the base away, EMA with mu=1 must not move a single bit
        for v in params.params.values():
            v += 0.123
        twin = enc.ema_update(params, twin, 1.0)
        for k in snap:
            assert np.array_equal(snap[k], twin.params[k])

    def test_ema_mu_zero_copies(self):
        params = micro_params()
        twin = enc.init_momentum(params)
        for v in params.params.values():
            v += 1.0
        twin = enc.ema_update(params, twin, 0.0)
        for k in twin.params:
            np.testing.assert_array_equal(twin.params[k], params.params[k])

    def test_ema_closed_form(self):
        params = micro_params()
        twin = enc.init_momentum(params)
        xi0 = {k: v.copy() for k, v in twin.params.items()}
        for v in params.params.values():
            v += 0.5
        mu = 0.99
        for _ in range(100):
            twin = enc.ema_update(params, twin, mu)
        f = mu**100
        for k in twin.params:
            expect = f * xi0[k] + (1 - f) * params.params[k]
            err = np.abs(twin.params[k] - expect).max()
            assert err <= 1e-12

    def test_ema_updates_the_twin_in_place(self):
        params = micro_params()
        twin = enc.init_momentum(params)
        flat = twin.params.flat
        views = [id(v) for v in twin.params.values()]
        for v in params.params.values():
            v += 1.0
        out = enc.ema_update(params, twin, 0.5)
        assert out is twin
        assert twin.params.flat is flat
        assert [id(v) for v in twin.params.values()] == views
        np.testing.assert_allclose(
            twin.params["patch_embed.w"], params.params["patch_embed.w"] - 0.5,
            atol=1e-15,
        )

    def test_twin_mirrors_the_encoders_leading_names(self):
        params = micro_params()
        twin = enc.init_momentum(params)
        mine, theirs = twin.params, params.params
        assert list(mine) == list(theirs)[: len(mine)]
        np.testing.assert_array_equal(mine.flat, theirs.flat[: mine.flat.size])

    def test_twin_layout_leads_the_encoder_layout(self):
        cfg = enc.vit_micro(8)
        full = list(enc.layout(cfg).items())
        twin = list(enc.layout(cfg, twin=True).items())
        assert 0 < len(twin) < len(full)
        assert full[: len(twin)] == twin
        assert all(name.startswith("pred.") for name, _ in full[len(twin) :])

    def test_mu_out_of_range_rejected(self):
        params = micro_params()
        twin = enc.init_momentum(params)
        with pytest.raises(ValueError):
            enc.ema_update(params, twin, 1.5)


class TestPacked:
    def test_pack_copies_into_one_array(self):
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2, np.float32)}
        packed = enc.pack(arrays, {"a": (2, 3), "b": (2,)})
        assert packed.flat.shape == (8,) and packed.flat.dtype == np.float64
        np.testing.assert_array_equal(packed.flat, [0, 1, 2, 3, 4, 5, 1, 1])
        assert packed["a"].base is packed.flat
        assert not np.shares_memory(packed["a"], arrays["a"])

    def test_empty_set_packs(self):
        assert enc.pack({}, {}).flat.size == 0


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = micro_params(seed=9)
        blobs = {f"theta.{k}": v for k, v in params.params.items()}
        path = tmp_path / "ck.bin"
        enc.write_checkpoint(path, params.config, blobs, {"step": 12})
        cfg, back, meta = enc.read_checkpoint(path)
        assert cfg == params.config
        assert meta["step"] == 12
        assert set(back) == set(blobs)
        for k in blobs:
            assert back[k].dtype == np.float64
            assert np.array_equal(back[k], blobs[k])

    def test_f32_blobs_keep_dtype(self, tmp_path):
        cfg = enc.vit_micro(8)
        blobs = {"theta.x": np.ones(3, dtype=np.float32)}
        path = tmp_path / "ck32.bin"
        enc.write_checkpoint(path, cfg, blobs, {})
        _, back, _ = enc.read_checkpoint(path)
        assert back["theta.x"].dtype == np.float32

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            enc.read_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        params = micro_params()
        path = tmp_path / "trunc.bin"
        enc.write_checkpoint(
            path, params.config, {"theta.a": np.ones(100)}, {}
        )
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 50])
        with pytest.raises(ValueError, match="truncat"):
            enc.read_checkpoint(path)

    @pytest.mark.parametrize("fault", ["blob", "fsync"])
    def test_failed_write_keeps_previous_checkpoint(
        self, tmp_path, monkeypatch, fault
    ):
        cfg = enc.vit_micro(8)
        path = tmp_path / "ck.bin"
        enc.write_checkpoint(path, cfg, {"theta.a": np.ones(4)}, {"step": 1})
        before = path.read_bytes()
        blobs = {"theta.a": np.zeros(4), "theta.b": np.zeros(4)}
        if fault == "blob":
            # fails converting to floats, after the header and first blob
            blobs["theta.b"] = np.array([object()], dtype=object)
        else:

            def fsync(fd):
                raise OSError("disk gone")

            monkeypatch.setattr(enc.os, "fsync", fsync)
        with pytest.raises((TypeError, OSError)):
            enc.write_checkpoint(path, cfg, blobs, {"step": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]

    def test_version_2_ends_with_a_checksum_of_all_before(self, tmp_path):
        path = tmp_path / "ck.bin"
        enc.write_checkpoint(path, enc.vit_micro(8), {"theta.a": np.ones(4)}, {})
        raw = path.read_bytes()
        assert struct.unpack_from("<I", raw, 8)[0] == 2
        assert struct.unpack("<I", raw[-4:])[0] == zlib.crc32(raw[:-4])

    @pytest.mark.parametrize("where", [-40, -1])  # a blob byte, the checksum
    def test_flipped_byte_rejected(self, tmp_path, where):
        path = tmp_path / "ck.bin"
        enc.write_checkpoint(path, enc.vit_micro(8), {"theta.a": np.ones(8)}, {})
        raw = bytearray(path.read_bytes())
        raw[where] ^= 0x01
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=re.escape(f"{path}: checksum mismatch")):
            enc.read_checkpoint(path)

    def test_stray_bytes_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        enc.write_checkpoint(path, enc.vit_micro(8), {"theta.a": np.ones(2)}, {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-4] + b"\0" * 8 + raw[-4:])
        with pytest.raises(ValueError, match="stray bytes"):
            enc.read_checkpoint(path)

    @pytest.mark.parametrize("keep", [8, 11, 15])
    def test_short_prefix_rejected(self, tmp_path, keep):
        path = tmp_path / "short.bin"
        enc.write_checkpoint(path, enc.vit_micro(8), {}, {})
        path.write_bytes(path.read_bytes()[:keep])
        message = re.escape(f"{path}: truncated checkpoint header")
        with pytest.raises(ValueError, match=message):
            enc.read_checkpoint(path)

    @pytest.mark.parametrize(
        "header, error",
        [
            ({"meta": {}, "blobs": []}, "KeyError"),
            ({"config": {"image_side": 8, "patch_side": 2, "colour": 1},
              "meta": {}, "blobs": []}, "unexpected keyword argument 'colour'"),
            ({"config": {"image_side": 8, "patch_side": 2},
              "meta": {}, "blobs": [["a", [1], "<i8"]]}, "KeyError"),
            ({"config": {"image_side": 8, "patch_side": 2, "heads": 5, "dim": 32},
              "meta": {}, "blobs": []},
             "token dim 32 is not divisible by head count 5"),
        ],
        ids=["no_config", "unknown_config_key", "unknown_dtype", "untrainable"],
    )
    def test_malformed_header_rejected(self, tmp_path, header, error):
        path = tmp_path / "bad.bin"
        path.write_bytes(raw_checkpoint(header))
        message = re.escape(f"{path}: malformed checkpoint header")
        with pytest.raises(ValueError, match=message):
            enc.read_checkpoint(path)
        with pytest.raises(ValueError, match=error):
            enc.read_checkpoint(path)

    def test_unreadable_header_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        raw = bytearray(raw_checkpoint({"config": {}, "meta": {}, "blobs": []}))
        raw[16] = 0xFF  # not UTF-8, not JSON
        path.write_bytes(raw)
        message = re.escape(f"{path}: malformed checkpoint header")
        with pytest.raises(ValueError, match=message):
            enc.read_checkpoint(path)

    def test_blobs_are_read_only_views(self, tmp_path):
        params = micro_params()
        path = tmp_path / "ck.bin"
        enc.write_checkpoint(path, params.config, dict(params.params), {})
        _, back, _ = enc.read_checkpoint(path)
        for name, arr in back.items():
            assert not arr.flags.writeable and not arr.flags.owndata, name
            np.testing.assert_array_equal(arr, params.params[name])
