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
            enc.vit_micro(9).validate()
        with pytest.raises(ValueError):
            enc.vit_micro(8, dim=30, heads=4).validate()

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

    def test_buffers_start_at_unit_stats(self):
        params = micro_params()
        assert "proj.bn1.mean" in params.buffers
        np.testing.assert_array_equal(params.buffers["proj.bn1.mean"], 0.0)
        np.testing.assert_array_equal(params.buffers["proj.bn1.var"], 1.0)

    def test_truncated_normal_bounded(self):
        params = micro_params(seed=5)
        w = params.params["blocks.0.attn.qkv.w"]
        assert np.abs(w).max() <= 2.0 * 0.02 + 1e-12

    def test_deterministic_under_seed(self):
        a, b = micro_params(seed=3), micro_params(seed=3)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])


class TestForward:
    def test_backbone_shape_and_determinism(self):
        params = micro_params()
        tv = enc.bind(params.params, None)
        pb = micro_batch(3)
        h1 = enc.forward_backbone(params.config, tv, pb)
        h2 = enc.forward_backbone(params.config, tv, pb)
        assert h1.data.shape == (3, 32)
        np.testing.assert_array_equal(h1.data, h2.data)

    def test_attention_capture(self):
        params = micro_params()
        tv = enc.bind(params.params, None)
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
            tv = enc.bind(params.params, tape)
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
        tv = enc.bind(params.params, tape)
        rep = enc.forward_backbone(params.config, tv, micro_batch(4))
        z, h = enc.forward_heads(
            params.config, tv, params.buffers, rep, update_stats=False
        )
        assert z.data.shape == (4, 64) and h.data.shape == (4, 64)

    def test_gradients_reach_every_parameter(self):
        params = micro_params()
        tape = ad.Tape()
        tv = enc.bind(params.params, tape)
        rep = enc.forward_backbone(params.config, tv, micro_batch(3))
        z, h = enc.forward_heads(
            params.config, tv, params.buffers, rep, update_stats=False
        )
        tape.backward(ad.asum(ad.add(ad.asum(z), ad.asum(h))))
        zero = [
            name
            for name, t in tv.items()
            if not np.any(tape.grad(t))
            # final BN layers have no affine params; every listed name must
            # still receive some gradient
        ]
        assert zero == [], f"no gradient reached: {zero}"


class TestBatchNormBuffers:
    def test_train_mode_updates_buffers(self):
        params = micro_params()
        before = {k: v.copy() for k, v in params.buffers.items()}
        tv = enc.bind(params.params, None)
        rep = enc.forward_backbone(params.config, tv, micro_batch(4))
        enc.forward_heads(
            params.config, tv, params.buffers, rep, update_stats=True
        )
        changed = [k for k in before if not np.array_equal(before[k], params.buffers[k])]
        assert changed, "train-mode forward must update running stats"

    def test_eval_mode_leaves_buffers(self):
        params = micro_params()
        before = {k: v.copy() for k, v in params.buffers.items()}
        tv = enc.bind(params.params, None)
        rep = enc.forward_backbone(params.config, tv, micro_batch(4))
        enc.forward_heads(
            params.config, tv, params.buffers, rep, update_stats=False
        )
        for k in before:
            np.testing.assert_array_equal(before[k], params.buffers[k])

    def test_unbiased_variance_in_update(self):
        # one train step with momentum 0.9: new = 0.9*old + 0.1*batch_unbiased
        params = micro_params()
        tv = enc.bind(params.params, None)
        pb = micro_batch(8)
        rep = enc.forward_backbone(params.config, tv, pb)
        x = rep.data
        old = params.buffers["proj.bn1.mean"].copy()
        enc.forward_heads(
            params.config, tv, params.buffers, rep, update_stats=True
        )
        w = params.params["proj.fc1.w"]
        pre = x @ w
        expect = 0.9 * old + 0.1 * pre.mean(axis=0)
        np.testing.assert_allclose(
            params.buffers["proj.bn1.mean"], expect, atol=1e-12
        )
        expect_var = 0.9 * 1.0 + 0.1 * pre.var(axis=0, ddof=1)
        np.testing.assert_allclose(
            params.buffers["proj.bn1.var"], expect_var, atol=1e-12
        )


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

    def test_ema_tracks_buffers(self):
        params = micro_params()
        twin = enc.init_momentum(params)
        params.buffers["proj.bn1.mean"] += 1.0
        twin = enc.ema_update(params, twin, 0.5)
        np.testing.assert_allclose(
            twin.buffers["proj.bn1.mean"],
            0.5 * 0.0 + 0.5 * params.buffers["proj.bn1.mean"],
            atol=1e-15,
        )

    def test_mu_out_of_range_rejected(self):
        params = micro_params()
        twin = enc.init_momentum(params)
        with pytest.raises(ValueError):
            enc.ema_update(params, twin, 1.5)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = micro_params(seed=9)
        blobs = {f"theta.{k}": v for k, v in params.params.items()}
        blobs.update({f"theta_buf.{k}": v for k, v in params.buffers.items()})
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
