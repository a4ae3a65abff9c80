import copy
import csv
import dataclasses
import gc
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from patchmix import augment as au
from patchmix import autodiff as ad
from patchmix import datasets as ds
from patchmix import encoder as enc
from patchmix import mixing as mx
from patchmix import objectives as ob
from patchmix import patch_ops as po
from patchmix import trainer as tr
from patchmix.autodiff import Tape

from checkpoint_bytes import per_name

# TrainConfig's warning for a batch of at most 2M - 2 images
DUPLICATE_TARGETS = "mix-to-mix targets contain duplicate indices within a row"


def micro_config(**overrides) -> tr.TrainConfig:
    kw = dict(
        vit=enc.vit_micro(8),
        epochs=2,
        warmup_epochs=1,
        base_lr=1e-3,
        batch_size=4,
        mix_count=2,
        seed=0,
    )
    kw.update(overrides)
    return tr.TrainConfig(**kw)


def micro_batch(n: int = 4, seed: int = 0) -> po.ImageBatch:
    rng = np.random.default_rng(seed)
    return po.ImageBatch(rng.random((n, 3, 8, 8)))


def flat_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


def assert_params_equal(a: dict[str, np.ndarray], b: dict[str, np.ndarray]):
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=k)


class TestSchedule:
    def test_warmup_endpoints_exact(self):
        assert tr.schedule(0, 100, 10, 2e-3, 0.0, "warmup-cosine") == 0.0
        assert tr.schedule(10, 100, 10, 2e-3, 0.0, "warmup-cosine") == 2e-3
        assert tr.schedule(100, 100, 10, 2e-3, 0.0, "warmup-cosine") == 0.0

    def test_cosine_endpoints_exact(self):
        assert tr.schedule(0, 100, 0, 0.996, 1.0, "cosine") == 0.996
        assert tr.schedule(100, 100, 0, 0.996, 1.0, "cosine") == 1.0
        # (0.04, 0.4) is a pair where 0.4 + (0.04 - 0.4) != 0.04 in floats;
        # the blend must not be allowed to re-round the endpoints
        assert tr.schedule(0, 100, 0, 0.04, 0.4, "cosine") == 0.04
        assert tr.schedule(100, 100, 0, 0.04, 0.4, "cosine") == 0.4

    def test_cosine_midpoint_is_mean_of_endpoints(self):
        mid = tr.schedule(50, 100, 0, 0.04, 0.4, "cosine")
        assert abs(mid - 0.22) <= 1e-15

    def test_warmup_is_linear(self):
        quarter = tr.schedule(5, 100, 20, 1.0, 0.0, "warmup-cosine")
        assert quarter == 0.25

    def test_monotone_between_endpoints(self):
        lr = [tr.schedule(s, 50, 5, 1e-2, 0.0, "warmup-cosine") for s in range(51)]
        assert all(b > a for a, b in zip(lr[:5], lr[1:6]))
        assert all(b <= a for a, b in zip(lr[5:50], lr[6:51]))
        wd = [tr.schedule(s, 50, 0, 0.04, 0.4, "cosine") for s in range(51)]
        assert all(b >= a for a, b in zip(wd, wd[1:]))

    def test_step_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            tr.schedule(11, 10, 0, 1.0, 0.0, "cosine")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            tr.schedule(0, 10, 0, 1.0, 0.0, "linear")


class TestDecayExempt:
    @pytest.mark.parametrize(
        "name",
        [
            "cls_token",
            "patch_embed.b",
            "blocks.0.ln1.g",
            "blocks.0.ln1.b",
            "norm.g",
            "proj.bn1.beta",
            "blocks.1.attn.qkv.b",
        ],
    )
    def test_exempt(self, name):
        assert tr.decay_exempt(name)

    @pytest.mark.parametrize(
        "name",
        [
            "patch_embed.w",
            "pos_embed",
            "proj.bn1.gamma",
            "blocks.0.attn.qkv.w",
            "pred.fc1.w",
        ],
    )
    def test_decayed(self, name):
        assert not tr.decay_exempt(name)


def reference_adamw(params, grads, lr, wd, moments, step, betas, eps):
    """AdamW over a name -> array dict, one name at a time: the per-name
    loop that ``optimizer_update`` replaced, kept as its oracle."""
    b1, b2 = betas
    m_dict, v_dict = moments
    c1 = 1.0 - b1**step
    c2 = 1.0 - b2**step
    for name, theta in params.items():
        g = grads[name]
        m = m_dict[name]
        v = v_dict[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        if wd != 0.0 and not tr.decay_exempt(name):
            update = update + wd * theta
        theta -= lr * update


def assert_bits_equal(a: dict[str, np.ndarray], b: dict[str, np.ndarray]):
    assert a.keys() == b.keys()
    for k in a:
        assert a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes(), k


class TestOptimizer:
    def setup_method(self):
        self.params = enc.Packed({"layer.w": (2, 2), "layer.b": (2,)}, np.ones(6))
        self.moments = (np.zeros(6), np.zeros(6))

    def update(self, grad, lr, wd, step=1):
        return tr.optimizer_update(
            self.params.flat, grad, lr, wd, self.moments, step,
            tr.decay_mask(self.params),
        )

    def test_zero_grads_no_decay_is_identity(self):
        before = flat_params(self.params)
        self.update(np.zeros(6), 0.1, 0.0)
        assert_params_equal(self.params, before)

    def test_zero_grads_decay_shrinks_non_exempt(self):
        self.update(np.zeros(6), 0.1, 0.5)
        np.testing.assert_array_equal(
            self.params["layer.w"], np.full((2, 2), 1.0 - 0.1 * 0.5)
        )
        # biases are exempt from decay
        np.testing.assert_array_equal(self.params["layer.b"], np.ones(2))

    def test_decay_mask_follows_names(self):
        mask = tr.decay_mask(self.params)
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, [True] * 4 + [False] * 2)

    def test_first_step_is_unit_scaled(self):
        # grad of theta^2/2 at theta=1 is 1; bias-corrected Adam moves ~lr
        params = enc.Packed({"x.w": (1,)}, np.array([1.0]))
        moments = (np.zeros(1), np.zeros(1))
        tr.optimizer_update(
            params.flat, np.array([1.0]), 0.1, 0.0, moments, 1,
            tr.decay_mask(params),
        )
        assert abs(params["x.w"][0] - 0.9) <= 1e-7

    def test_updates_in_place(self):
        out = self.update(np.zeros(6), 0.1, 0.5)
        assert out is self.params.flat
        assert np.shares_memory(self.params["layer.w"], out)

    def test_moments_accumulate(self):
        grad = np.array([2.0, 2.0, 2.0, 2.0, 0.0, 0.0])
        self.update(grad, 0.1, 0.0)
        np.testing.assert_allclose(self.moments[0][:4], 0.1 * 2.0)
        np.testing.assert_allclose(self.moments[1][:4], 0.001 * 4.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("wd", [0.0, 0.05])
    def test_equals_per_name_reference_bit_for_bit(self, dtype, wd):
        params = enc.init_encoder(
            enc.vit_micro(8), np.random.default_rng(4), dtype=dtype
        ).params
        ref = flat_params(params)
        ref_moments = (
            {k: np.zeros_like(v) for k, v in ref.items()},
            {k: np.zeros_like(v) for k, v in ref.items()},
        )
        moments = (np.zeros_like(params.flat), np.zeros_like(params.flat))
        decay = tr.decay_mask(params)
        rng = np.random.default_rng(5)
        for step in range(1, 5):
            grads = {
                k: rng.normal(0.0, 0.1, size=v.shape).astype(dtype)
                for k, v in params.items()
            }
            grad = np.concatenate([g.ravel() for g in grads.values()])
            tr.optimizer_update(params.flat, grad, 1e-2, wd, moments, step, decay)
            reference_adamw(
                ref, grads, 1e-2, wd, ref_moments, step, tr.ADAM_BETAS, tr.ADAM_EPS
            )
            assert_bits_equal(params, ref)
        for flat, by_name in zip(moments, ref_moments):
            assert_bits_equal(enc.Packed(params.shapes, flat), by_name)

    def test_clip_rescales_to_max_norm(self):
        grad = np.array([3.0, 4.0])
        tr._clip_gradients(grad, 1.0)
        assert abs(math.sqrt(float((grad * grad).sum())) - 1.0) <= 1e-12
        assert abs(grad[0] / grad[1] - 3.0 / 4.0) <= 1e-12

    def test_clip_leaves_small_gradients_alone(self):
        grad = np.array([0.3])
        tr._clip_gradients(grad, 1.0)
        assert grad[0] == 0.3


class TestConfigValidation:
    def test_warmup_must_be_below_epochs(self):
        with pytest.raises(ValueError, match="warmup"):
            micro_config(epochs=2, warmup_epochs=2)

    def test_mix_count_bounded_by_batch(self):
        with pytest.raises(ValueError, match="mix count"):
            micro_config(batch_size=2, mix_count=3)

    @pytest.mark.parametrize("mix_count", [1, 2, 3, 4])
    def test_wrapping_mix_window_warns_once_at_construction(self, mix_count):
        # a batch of at most 2M - 2 wraps the 2M-1 mix-to-mix window
        for batch in range(mix_count, 2 * mix_count + 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                micro_config(batch_size=batch, mix_count=mix_count)
            if batch <= 2 * mix_count - 2:
                assert [str(w.message) for w in caught] == [
                    f"batch size {batch} <= 2*{mix_count} - 2: {DUPLICATE_TARGETS}"
                ]
                assert caught[0].category is UserWarning
                assert caught[0].filename == __file__  # micro_config's line
            else:
                assert caught == []

    def test_loss_weights_validated(self):
        with pytest.raises(ValueError, match="weights"):
            micro_config(loss_weights=(1.0, -1.0, 1.0))
        with pytest.raises(ValueError, match="weights"):
            micro_config(loss_weights=(1.0, 1.0))

    def test_precision_validated(self):
        with pytest.raises(ValueError, match="precision"):
            micro_config(precision="f16")

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("grad_clip", -1.0, "grad clip"),
            ("grad_clip", 0.0, "grad clip"),
            ("grad_clip", math.nan, "grad clip"),
            ("base_lr", -1e-3, "base lr"),
            ("base_lr", math.nan, "base lr"),
            ("temperature", math.nan, "temperature"),
            ("loss_weights", (1.0, math.nan, 1.0), "loss weights"),
            ("weight_decay", (-0.04, 0.4), "weight decay"),
            ("weight_decay", (0.04, math.nan), "weight decay"),
            ("momentum_mu", (0.996, 1.5), "momentum mu"),
            ("momentum_mu", (-0.1, 1.0), "momentum mu"),
            ("weight_decay", (0.1,), "weight decay must be a .start, end."),
            ("weight_decay", (0.1, 0.2, 0.3), "weight decay must be a .start, end."),
            ("momentum_mu", (0.9,), "momentum mu must be a .start, end."),
            ("momentum_mu", 0.9, "momentum mu must be a .start, end."),
            ("checkpoint_every", -1, "checkpoint every"),
            ("mix_count", 20, "got 20 with batch 32 and 16 tokens"),
            ("mix_count", 2.5, "mix count must be an integer, got 2.5"),
            ("mix_count", True, "mix count must be an integer, got True"),
            ("epochs", 2.0, "epochs must be an integer"),
            ("warmup_epochs", None, "warmup epochs must be an integer"),
            ("batch_size", "32", "batch size must be an integer"),
            ("seed", 0.0, "seed must be an integer"),
            ("checkpoint_every", False, "checkpoint every must be an integer"),
            ("loss_weights", 1.0, "loss weights"),
            ("loss_weights", "abc", "loss weights"),
            ("loss_weights", (1.0, "1", 1.0), "loss weights"),
            ("loss_weights", (1.0, True, 1.0), "loss weights"),
            ("base_lr", "1e-3", "base lr"),
            ("temperature", None, "temperature"),
            ("grad_clip", "1", "grad clip"),
            ("weight_decay", ("0.04", 0.4), "weight decay"),
        ],
    )
    def test_out_of_contract_value_rejected(self, field, value, message):
        # a batch of 32, so that the mix count meets the 16 tokens' bound first
        with pytest.raises(ValueError, match=message):
            micro_config(**{"batch_size": 32, field: value})

    @pytest.mark.parametrize(
        "field,value", [("grad_clip", 1.0), ("momentum_mu", (0.0, 1.0))]
    )
    def test_values_at_the_contract_edge_accepted(self, field, value):
        assert getattr(micro_config(**{field: value}), field) == value


class TestInitState:
    def test_step_counts_use_floor_division(self):
        state = tr.init_state(micro_config(epochs=3, warmup_epochs=1), 10)
        assert state.total_steps == 3 * 2
        assert state.warmup_steps == 1 * 2
        assert state.step == 0 and state.epoch == 0

    def test_dataset_smaller_than_batch_rejected(self):
        with pytest.raises(ValueError, match="no full batch"):
            tr.init_state(micro_config(), 3)

    def test_twin_starts_equal_and_moments_zero(self):
        state = tr.init_state(micro_config(), 8)
        for k, v in state.momentum.params.items():
            np.testing.assert_array_equal(v, state.encoder.params[k])
        assert all(np.all(v == 0) for v in state.opt_m.values())
        assert all(np.all(v == 0) for v in state.opt_v.values())


def reference_train_step(state: tr.TrainState, batch: po.ImageBatch):
    """The step with both taped passes on one tape and one backward sweep:
    the step that the two-tape ``train_step`` replaced, kept as its
    oracle. Its leaf gradients are the same two-term sums, so the two must
    agree bit for bit."""
    cfg = state.config
    vit = cfg.vit
    n = batch.count
    seed, step = cfg.seed, state.step
    lr, wd, mu = tr._schedules_at(state)
    x1 = au.augment_view(batch, cfg.aug, 1, tr._derive_rng(seed, tr._RNG_AUG1, step))
    x2 = au.augment_view(batch, cfg.aug, 2, tr._derive_rng(seed, tr._RNG_AUG2, step))
    pb1 = po.patchify(x1, vit.patch_side)
    pb2 = po.patchify(x2, vit.patch_side)
    mix_cfg = mx.MixConfig(images=n, groups=cfg.mix_count, tokens=pb1.tokens)
    plan1 = mx.plan_mix(mix_cfg, po.sample_permutation(
        pb1.tokens, tr._derive_rng(seed, tr._RNG_MIX1, step)))
    plan2 = mx.plan_mix(mix_cfg, po.sample_permutation(
        pb2.tokens, tr._derive_rng(seed, tr._RNG_MIX2, step)))
    mixed1 = mx.apply_mix(pb1, plan1)
    mixed2 = mx.apply_mix(pb2, plan2)

    def cast(patches):
        return patches.astype(cfg.dtype, copy=False)

    mtv = enc.bind(state.momentum.params)

    def momentum_project(patches):
        return enc.forward_project(vit, mtv, enc.forward_backbone(vit, mtv, patches))

    z_view1 = momentum_project(cast(pb1.patches))
    z_view2 = momentum_project(cast(pb2.patches))
    z_mix2 = momentum_project(cast(mixed2.patches.patches))
    tape = Tape()
    tv = {k: tape.var(v) for k, v in state.encoder.params.items()}

    def predict(patches):
        return enc.forward_heads(vit, tv, enc.forward_backbone(vit, tv, patches))[1]

    h_mix1 = predict(cast(mixed1.patches.patches))
    h_view2 = predict(cast(pb2.patches))
    cb = ob.ContrastBatch(
        h_mix1, h_view2, z_view1, z_view2, z_mix2, plan1, cfg.temperature
    )
    report, total = ob.loss_total(cb, term_weights=cfg.loss_weights)
    assert math.isfinite(report.l_total)
    tape.backward(total)
    grad = np.concatenate([tape.grad(t).ravel() for t in tv.values()])
    if cfg.grad_clip is not None:
        tr._clip_gradients(grad, cfg.grad_clip)
    tr.optimizer_update(
        state.encoder.params.flat, grad, lr, wd,
        (state.opt_m.flat, state.opt_v.flat), step + 1, state.decay,
    )
    enc.ema_update(state.encoder, state.momentum, mu)
    state.step += 1
    state.loss_history.append(
        (step, report.l_mto, report.l_mtm, report.l_oto, report.l_total, lr, mu, wd)
    )
    return state, report


class TestTrainStep:
    def test_deterministic_across_runs(self):
        cfg = micro_config()
        batch = micro_batch()
        s1, r1 = tr.train_step(tr.init_state(cfg, 8), batch)
        s2, r2 = tr.train_step(tr.init_state(cfg, 8), batch)
        assert r1 == r2
        assert_params_equal(s1.encoder.params, s2.encoder.params)
        assert_params_equal(s1.momentum.params, s2.momentum.params)

    def test_wrong_batch_size_rejected(self):
        state = tr.init_state(micro_config(), 8)
        with pytest.raises(ValueError, match="expects"):
            tr.train_step(state, micro_batch(n=5))

    def test_step_advances_and_logs(self):
        state = tr.init_state(micro_config(), 8)
        state, report = tr.train_step(state, micro_batch())
        assert state.step == 1
        assert len(state.loss_history) == 1
        row = state.loss_history[0]
        assert row[0] == 0
        assert row[1:5] == (report.l_mto, report.l_mtm, report.l_oto, report.l_total)

    def test_twin_follows_ema_of_updated_encoder(self):
        # no gradient may leak into the twin: after the step it must equal
        # exactly ema(theta_new, xi_old)
        cfg = micro_config()
        state = tr.init_state(cfg, 8)
        twin = state.momentum.params
        xi_old = enc.EncoderParams(cfg.vit, enc.Packed(twin.shapes, twin.flat.copy()))
        mu = tr.schedule(
            0, state.total_steps, 0, cfg.momentum_mu[0], cfg.momentum_mu[1], "cosine"
        )
        state, _ = tr.train_step(state, micro_batch())
        expected = enc.ema_update(state.encoder, xi_old, mu)
        assert_params_equal(state.momentum.params, expected.params)

    def test_twin_read_before_update_and_written_after(self, monkeypatch):
        state = tr.init_state(micro_config(), 8)
        probe = state.momentum.params["patch_embed.w"]
        events: list[str] = []
        real_project = enc.forward_project
        real_opt = tr.optimizer_update
        real_ema = enc.ema_update

        def spy_project(config, tv, *args, **kwargs):
            # forward_heads routes through here too; tag only twin reads
            if tv["patch_embed.w"].data is probe:
                events.append("twin-read")
            return real_project(config, tv, *args, **kwargs)

        def spy_opt(*args, **kwargs):
            events.append("optimizer")
            return real_opt(*args, **kwargs)

        def spy_ema(*args, **kwargs):
            events.append("ema")
            return real_ema(*args, **kwargs)

        monkeypatch.setattr(enc, "forward_project", spy_project)
        monkeypatch.setattr(tr, "optimizer_update", spy_opt)
        monkeypatch.setattr(enc, "ema_update", spy_ema)
        tr.train_step(state, micro_batch())
        assert events == ["twin-read"] * 3 + ["optimizer", "ema"]

    def test_non_finite_loss_aborts_without_side_effects(self, monkeypatch):
        state = tr.init_state(micro_config(), 8)
        before = {label: p.flat.tobytes() for label, p in state_sets(state).items()}

        def poisoned(cb, **kwargs):
            return ob.LossReport(math.nan, math.nan, math.nan, math.nan), None

        monkeypatch.setattr(tr.ob, "loss_total", poisoned)
        state, report = tr.train_step(state, micro_batch())
        assert report is None
        assert state.step == 0
        assert state.loss_history == [] and state.aborted == 1
        for label, packed in state_sets(state).items():
            assert packed.flat.tobytes() == before[label], label

    def test_non_finite_embeddings_abort_without_side_effects(self):
        state = tr.init_state(micro_config(), 8)
        state.encoder.params["patch_embed.w"][0, 0] = math.nan
        before = {label: p.flat.tobytes() for label, p in state_sets(state).items()}
        state, report = tr.train_step(state, micro_batch())
        assert report is None
        assert state.step == 0
        assert state.loss_history == [] and state.aborted == 1
        for label, packed in state_sets(state).items():
            assert packed.flat.tobytes() == before[label], label

    def test_clipped_step_hands_adamw_the_gradient_at_the_clip_norm(
        self, monkeypatch
    ):
        grads = []
        real_opt = tr.optimizer_update

        def spy_opt(theta, grad, *args):
            grads.append(grad.copy())
            return real_opt(theta, grad, *args)

        monkeypatch.setattr(tr, "optimizer_update", spy_opt)
        clip = 1e-3
        # the 1e-12 tolerances below hold in f64
        for cfg in (
            micro_config(precision="f64"),
            micro_config(precision="f64", grad_clip=clip),
        ):
            _, report = tr.train_step(tr.init_state(cfg, 8), micro_batch())
            assert report is not None
        unclipped, clipped = grads
        norm = math.sqrt(float((unclipped * unclipped).sum()))
        assert norm > clip
        assert abs(math.sqrt(float((clipped * clipped).sum())) - clip) <= 1e-12 * clip
        np.testing.assert_allclose(clipped, unclipped * (clip / norm), rtol=1e-12)

    def test_mu_one_freezes_twin(self):
        cfg = micro_config(momentum_mu=(1.0, 1.0))
        state = tr.init_state(cfg, 8)
        xi0 = flat_params(state.momentum.params)
        for seed in range(3):
            state, _ = tr.train_step(state, micro_batch(seed=seed))
        assert_params_equal(state.momentum.params, xi0)

    def test_zero_lr_leaves_encoder_unchanged(self):
        cfg = micro_config(base_lr=0.0, weight_decay=(0.0, 0.0))
        state = tr.init_state(cfg, 8)
        theta0 = flat_params(state.encoder.params)
        state, report = tr.train_step(state, micro_batch())
        assert report is not None
        assert_params_equal(state.encoder.params, theta0)
        # the twin's EMA write mu*t + (1-mu)*t re-rounds, so compare
        # against that exact expression rather than t itself
        mu = state.loss_history[0][6]
        assert_params_equal(
            state.momentum.params,
            {k: mu * theta0[k] + (1.0 - mu) * theta0[k]
             for k in state.momentum.params},
        )

    def test_f32_precision_runs_and_keeps_dtype(self):
        cfg = micro_config(precision="f32")
        state = tr.init_state(cfg, 8)
        state, report = tr.train_step(state, micro_batch())
        assert report is not None
        assert all(v.dtype == np.float32 for v in state.encoder.params.values())

    def test_f32_step_computes_in_f32(self, monkeypatch):
        tapes = []

        class RecordingTape(Tape):
            def __init__(self):
                super().__init__()
                self.deltas = []
                self.outputs = []  # the dtype of every node's output
                tapes.append(self)

            def _accumulate(self, key, delta):
                self.deltas.append(delta.dtype)
                super()._accumulate(key, delta)

        node = ad._node

        def recording_node(value, *edges):
            out = node(value, *edges)
            if isinstance(out.tape, RecordingTape):
                out.tape.outputs.append(out.data.dtype)
            return out

        monkeypatch.setattr(tr, "Tape", RecordingTape)
        monkeypatch.setattr(ad, "_node", recording_node)
        state = tr.init_state(micro_config(precision="f32"), 8)
        state, report = tr.train_step(state, micro_batch())
        assert report is not None
        assert len(tapes) == 2  # the origin part's, then the mix part's
        for tape in tapes:
            assert set(tape.outputs) == {np.dtype(np.float32)}
            assert set(tape.deltas) == {np.dtype(np.float32)}
        for group in (
            state.encoder.params,
            state.momentum.params,
            state.opt_m,
            state.opt_v,
        ):
            assert {v.dtype for v in group.values()} == {np.dtype(np.float32)}

    def test_step_differentiates_only_taped_tensors(self, monkeypatch):
        tapes = []

        class RecordingTape(Tape):
            def __init__(self):
                super().__init__()
                self.targets = []
                self.keys = set()  # the key of every tensor of this tape
                tapes.append(self)

            def var_into(self, data, grad):
                t = super().var_into(data, grad)
                self.keys.add(t.key)
                return t

            def _accumulate(self, key, delta):
                self.targets.append(key)
                super()._accumulate(key, delta)

        node = ad._node

        def recording_node(value, *edges):
            out = node(value, *edges)
            if isinstance(out.tape, RecordingTape):
                out.tape.keys.add(out.key)
            return out

        monkeypatch.setattr(tr, "Tape", RecordingTape)
        monkeypatch.setattr(ad, "_node", recording_node)
        state = tr.init_state(micro_config(), 8)
        state, report = tr.train_step(state, micro_batch())
        assert report is not None
        assert len(tapes) == 2
        for tape in tapes:
            assert tape.targets
            # constants never get a delta: the patch inputs, the momentum
            # twin's outputs, the mix weights, scalars such as batch-norm eps,
            # and on the mix part's tape the origin part's values
            assert all(key in tape.keys for key in tape.targets)

    def test_step_frees_its_tape_on_return(self, monkeypatch):
        refs = []

        class WatchedTape(Tape):
            def __init__(self):
                super().__init__()
                refs.append(weakref.ref(self))

        monkeypatch.setattr(tr, "Tape", WatchedTape)
        state = tr.init_state(micro_config(), 8)
        was_enabled = gc.isenabled()
        gc.disable()  # only reference counting may free the tapes
        try:
            state, report = tr.train_step(state, micro_batch())
            assert report is not None
            assert len(refs) == 2
            assert all(ref() is None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("abort", ["value_error", "non_finite"])
    def test_aborted_step_frees_its_tape(self, monkeypatch, abort):
        refs = []

        class WatchedTape(Tape):
            def __init__(self):
                super().__init__()
                refs.append(weakref.ref(self))

        def failing(cb, **kwargs):
            if abort == "value_error":
                raise ValueError("bad batch")
            return ob.LossReport(math.nan, math.nan, math.nan, math.nan), None

        monkeypatch.setattr(tr, "Tape", WatchedTape)
        monkeypatch.setattr(tr.ob, "loss_total", failing)
        state = tr.init_state(micro_config(), 8)
        was_enabled = gc.isenabled()
        gc.disable()  # only reference counting may free the tapes
        try:
            state, report = tr.train_step(state, micro_batch())
            assert report is None and state.aborted == 1
            assert len(refs) == 2
            assert all(ref() is None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()

    def test_origin_tape_is_freed_before_the_mix_tape_records(self, monkeypatch):
        refs, swept, first_record = [], [], []

        class WatchedTape(Tape):
            def __init__(self):
                super().__init__()
                refs.append(weakref.ref(self))

            def backward(self, loss):
                super().backward(loss)
                swept.append(len(refs))  # the number of tapes made so far

        node = ad._node

        def watching_node(value, *edges):
            out = node(value, *edges)
            if len(refs) == 2 and out.tape is refs[1]() and not first_record:
                first_record.append((list(swept), refs[0]() is None))
            return out

        monkeypatch.setattr(tr, "Tape", WatchedTape)
        monkeypatch.setattr(ad, "_node", watching_node)
        state = tr.init_state(micro_config(), 8)
        was_enabled = gc.isenabled()
        gc.disable()  # only reference counting may free the tape
        try:
            state, report = tr.train_step(state, micro_batch())
        finally:
            if was_enabled:
                gc.enable()
        assert report is not None
        # when the mix part's tape records its first node, the origin part's
        # tape has been swept, while it was the only tape, and freed
        assert first_record == [([1], True)]
        assert swept == [1, 2]

    @pytest.mark.parametrize("abort", ["value_error", "non_finite"])
    def test_origin_part_abort_skips_the_mix_pass(self, monkeypatch, caplog, abort):
        taped_passes, sweeps = [], []
        real_backbone = enc.forward_backbone
        real_backward = Tape.backward

        def counting_backbone(config, tv, *args, **kwargs):
            if next(iter(tv.values())).tape is not None:
                taped_passes.append(1)
            return real_backbone(config, tv, *args, **kwargs)

        def counting_backward(self, loss):
            sweeps.append(1)
            return real_backward(self, loss)

        real_origin = ob.origin_term

        def failing(*args):
            if abort == "value_error":
                raise ValueError("bad batch")
            oto, weighted = real_origin(*args)
            return oto, ad.scale(weighted, math.nan)

        def no_total(*args, **kwargs):
            raise AssertionError("the mix part ran")

        monkeypatch.setattr(enc, "forward_backbone", counting_backbone)
        monkeypatch.setattr(Tape, "backward", counting_backward)
        monkeypatch.setattr(tr.ob, "origin_term", failing)
        monkeypatch.setattr(tr.ob, "loss_total", no_total)
        state = tr.init_state(micro_config(), 8)
        before = {label: p.flat.tobytes() for label, p in state_sets(state).items()}
        state, report = tr.train_step(state, micro_batch())
        assert report is None and state.aborted == 1
        assert state.step == 0 and state.loss_history == []
        assert len(taped_passes) == 1 and sweeps == []
        for label, packed in state_sets(state).items():
            assert packed.flat.tobytes() == before[label], label
        # the warning names the part that aborted
        assert [r.getMessage().split(": ")[1] for r in caplog.records] == [
            "origin part"
        ]

    @pytest.mark.parametrize("abort", ["value_error", "non_finite"])
    def test_mix_part_abort_after_the_origin_sweep_leaves_the_state(
        self, monkeypatch, caplog, abort
    ):
        sweeps = []
        real_backward = Tape.backward
        real_total = ob.loss_total

        def counting_backward(self, loss):
            sweeps.append(1)
            return real_backward(self, loss)

        def failing(cb, **kwargs):
            assert kwargs["origin"] is not None and sweeps == [1]
            if abort == "value_error":
                raise ValueError("bad batch")
            report, total = real_total(cb, **kwargs)
            return dataclasses.replace(report, l_total=math.inf), total

        state = tr.init_state(micro_config(), 8)
        state, report = tr.train_step(state, micro_batch())  # fills the moments
        assert report is not None
        monkeypatch.setattr(Tape, "backward", counting_backward)
        monkeypatch.setattr(tr.ob, "loss_total", failing)
        before = {label: p.flat.tobytes() for label, p in state_sets(state).items()}
        state, report = tr.train_step(state, micro_batch(seed=1))
        assert report is None and state.aborted == 1
        assert sweeps == [1]  # the origin part's, and no other
        assert state.step == 1 and len(state.loss_history) == 1
        for label, packed in state_sets(state).items():
            assert packed.flat.tobytes() == before[label], label
        assert [r.getMessage().split(": ")[1] for r in caplog.records] == [
            "mix part"
        ]

    def test_both_tapes_add_into_the_one_flat_gradient(self, monkeypatch):
        """Every leaf of both tapes is a ``var_into`` leaf whose gradient
        array is a view of one flat array, the one AdamW is handed; so no
        gradient is kept per leaf, and ``Tape.grad`` is never called."""
        tapes, handed = [], []

        class RecordingTape(Tape):
            def __init__(self):
                super().__init__()
                self.leaves, self.into = 0, []
                tapes.append(self)

            def var_into(self, data, grad):  # var attaches through it too
                self.leaves += 1
                self.into.append(grad)
                return super().var_into(data, grad)

            def grad(self, t):
                raise AssertionError("the step read a gradient kept per leaf")

        real_update = tr.optimizer_update

        def spy_update(theta, grad, *args):
            handed.append(grad)
            return real_update(theta, grad, *args)

        monkeypatch.setattr(tr, "Tape", RecordingTape)
        monkeypatch.setattr(tr, "optimizer_update", spy_update)
        state = tr.init_state(micro_config(), 8)
        params = state.encoder.params
        state, report = tr.train_step(state, micro_batch())
        assert report is not None
        assert len(tapes) == 2 and len(handed) == 1
        (flat,) = handed
        assert flat.shape == params.flat.shape and flat.dtype == params.flat.dtype
        # each leaf's array is its parameter's view, in the layout of the
        # parameters, of that one flat array
        def views(arrays, base):
            return [(a.shape, a.ctypes.data - base.ctypes.data) for a in arrays]

        for tape in tapes:
            assert tape.leaves == len(tape.into) == len(params)
            assert all(g.base is flat for g in tape.into)
            assert views(tape.into, flat) == views(params.values(), params.flat)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"loss_weights": (0.5, 0.25, 2.0)}, {"grad_clip": 0.5}],
        ids=["default", "weights", "clip"],
    )
    def test_two_tape_step_equals_the_one_tape_reference(self, precision, overrides):
        cfg = micro_config(precision=precision, **overrides)
        state, ref = tr.init_state(cfg, 8), tr.init_state(cfg, 8)
        for seed in range(2):
            state, report = tr.train_step(state, micro_batch(seed=seed))
            ref, ref_report = reference_train_step(ref, micro_batch(seed=seed))
            assert report is not None and report == ref_report
        assert state.loss_history == ref.loss_history
        refs = state_sets(ref)
        for label, packed in state_sets(state).items():
            assert packed.flat.dtype == refs[label].flat.dtype
            assert packed.flat.tobytes() == refs[label].flat.tobytes(), label

    def test_step_node_and_call_budget(self, monkeypatch):
        """Guards the graph size of one step: one node per biased projection,
        one call per pre-norm projection with its layer norm, a copy-free
        head split, and the origin term evaluated once, on the origin part's
        tape. Splitting them again exceeds the budget: the step records 106
        nodes on the origin part's tape and 117 on the mix part's, 223 in
        all, and makes 446 primitive calls (466 with a separate call for
        each pre-norm layer norm)."""
        nodes, calls = [], []

        class CountingTape(Tape):
            def backward(self, loss):
                nodes.append(len(self._nodes))
                super().backward(loss)

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        primitives = set(ad.__all__) - {
            "Tensor", "Tape", "GradCheckResult", "stop_gradient", "check_gradients"
        }
        for name in primitives | {"take"}:
            monkeypatch.setattr(ad, name, counted(getattr(ad, name)))
        monkeypatch.setattr(tr, "Tape", CountingTape)
        state = tr.init_state(micro_config(), 8)
        state, report = tr.train_step(state, micro_batch())
        assert report is not None
        assert len(nodes) == 2, nodes
        assert max(nodes) <= 117 and sum(nodes) <= 223, nodes
        assert len(calls) <= 446, len(calls)

    @staticmethod
    def second_step_peak_mib(precision: str) -> float:
        """Traced peak allocation of a batch-32 micro step after a warm-up."""
        cfg = micro_config(batch_size=32, precision=precision)
        state = tr.init_state(cfg, 32)
        batch = micro_batch(32)
        state, report = tr.train_step(state, batch)  # warm-up
        assert report is not None
        tracemalloc.start()
        try:
            state, report = tr.train_step(state, batch)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report is not None
        return peak / 2**20

    def test_step_peak_allocation_budget(self):
        """Guards the memory a step keeps alive at once: the graph holds
        only the arrays its gradient maps read, a taped GELU keeps one array,
        a pre-norm projection keeps its normalised input and not its affine
        output, layer norm, softmax and the GELU gradient build their
        temporaries in place, the momentum twin runs before the tapes fill,
        and the origin part's tape is swept and freed before the mix part's
        records, which adds its gradient into the origin part's in place.
        In f64, a graph that keeps every node's output took 16.2 MiB here,
        one whose GELU keeps two arrays and whose primitives allocate every
        temporary 10.0 MiB, one that also keeps each pre-norm affine output
        8.8 MiB, one tape for both taped passes 8.0 MiB; this step takes
        5.2 MiB, and the budget is 1.2x that."""
        peak = self.second_step_peak_mib("f64")
        assert peak <= 6.3, f"{peak:.1f} MiB"

    def test_f32_step_peak_allocation_budget(self):
        """The same step in f32 takes 2.8 MiB (5.2 MiB before the in-place
        primitives, 4.6 MiB when each pre-norm affine output was kept, 4.2
        MiB with one tape for both taped passes); the budget keeps the f64
        case's 1.2x headroom."""
        peak = self.second_step_peak_mib("f32")
        assert peak <= 3.4, f"{peak:.1f} MiB"


class TestCheckpointing:
    def test_save_and_reload_round_trips(self, tmp_path):
        cfg = micro_config()
        state = tr.init_state(cfg, 8)
        state, _ = tr.train_step(state, micro_batch())
        path = tmp_path / "state.bin"
        tr.save_state(state, path)
        loaded = tr.state_from_checkpoint(path, cfg)
        assert loaded.step == state.step
        assert loaded.total_steps == state.total_steps
        assert loaded.warmup_steps == state.warmup_steps
        assert loaded.loss_history == state.loss_history
        assert_params_equal(loaded.encoder.params, state.encoder.params)
        assert_params_equal(loaded.momentum.params, state.momentum.params)
        assert_params_equal(loaded.opt_m, state.opt_m)
        assert_params_equal(loaded.opt_v, state.opt_v)

    def test_abort_count_round_trips(self, tmp_path, monkeypatch):
        cfg = micro_config()
        state = tr.init_state(cfg, 8)
        assert state.aborted == 0

        def poisoned(cb, **kwargs):
            return ob.LossReport(math.nan, math.nan, math.nan, math.nan), None

        def rejected(cb, **kwargs):
            raise ValueError("zero-norm row")

        for fault in (poisoned, rejected):
            monkeypatch.setattr(tr.ob, "loss_total", fault)
            state, report = tr.train_step(state, micro_batch())
            assert report is None
        monkeypatch.undo()
        state, report = tr.train_step(state, micro_batch())
        assert report is not None
        assert (state.step, state.aborted) == (1, 2)
        tr.save_state(state, tmp_path / "state.bin")
        loaded = tr.state_from_checkpoint(tmp_path / "state.bin", cfg)
        assert loaded.aborted == 2

    def test_reload_then_step_matches_uninterrupted(self, tmp_path):
        cfg = micro_config()
        a = tr.init_state(cfg, 8)
        a, _ = tr.train_step(a, micro_batch(seed=0))
        tr.save_state(a, tmp_path / "mid.bin")
        b = tr.state_from_checkpoint(tmp_path / "mid.bin", cfg)
        a, ra = tr.train_step(a, micro_batch(seed=1))
        b, rb = tr.train_step(b, micro_batch(seed=1))
        assert ra == rb
        assert_params_equal(a.encoder.params, b.encoder.params)

    STATE_META = (
        "step", "epoch", "total_steps", "warmup_steps", "loss_history",
        "aborted", "data", "run",
    )

    @pytest.mark.parametrize(
        "dropped",
        [
            STATE_META, ("step", "warmup_steps"), ("loss_history",), ("aborted",),
            ("data",), ("run",), ("data", "run"),
        ],
    )
    def test_incomplete_meta_rejected(self, tmp_path, dropped):
        cfg = micro_config()
        tr.save_state(tr.init_state(cfg, 8), tmp_path / "full.bin")
        vit_cfg, blobs, meta = enc.read_checkpoint(tmp_path / "full.bin")
        meta = {k: v for k, v in meta.items() if k not in dropped}
        path = tmp_path / "partial.bin"
        enc.write_checkpoint(path, vit_cfg, blobs, meta)
        with pytest.raises(ValueError) as err:
            tr.state_from_checkpoint(path, cfg)
        head, listed = str(err.value).split(" lacks ", 1)
        assert head == f"{path}: checkpoint meta"
        assert listed.split(";")[0].split(", ") == [
            k for k in self.STATE_META if k in dropped
        ]

    def test_every_field_but_checkpoint_every_is_recorded(self, tmp_path):
        # a field added to TrainConfig later is recorded, and so checked, too
        cfg = micro_config(grad_clip=0.5, checkpoint_every=1, loss_weights=(1, 0.5, 2))
        tr.save_state(tr.init_state(cfg, 8), tmp_path / "s.bin")
        record = enc.read_checkpoint(tmp_path / "s.bin")[2]["run"]
        names = []
        for f in dataclasses.fields(tr.TrainConfig):
            value = getattr(cfg, f.name)
            if dataclasses.is_dataclass(value):
                names += [f"{f.name}.{g.name}" for g in dataclasses.fields(value)]
            elif f.name != "checkpoint_every":
                names.append(f.name)
        assert sorted(record) == sorted(names)
        assert record == tr._record(cfg)  # reads back equal
        assert record["aug.crop_area"] == list(cfg.aug.crop_area)
        assert record["grad_clip"] == 0.5 and record["vit.dim"] == cfg.vit.dim


def state_sets(state: tr.TrainState) -> dict[str, enc.Packed]:
    return {
        "params": state.encoder.params,
        "twin params": state.momentum.params,
        "adam m": state.opt_m,
        "adam v": state.opt_v,
    }


def assert_packed(packed: enc.Packed):
    """Every entry is a view, in name order and without gaps, of ``flat``,
    one contiguous array that owns its memory."""
    flat = packed.flat
    assert flat.ndim == 1 and flat.flags.c_contiguous and flat.base is None
    start = flat.__array_interface__["data"][0]
    for name, view in packed.items():
        assert view.base is flat, name
        assert view.__array_interface__["data"][0] == start, name
        start += view.nbytes
    assert start == flat.__array_interface__["data"][0] + flat.nbytes


SETS = ("theta", "xi", "adam_m", "adam_v")


# one loss-history row, as train_step appends it and a checkpoint stores it
ROW = [0, 1.5, 1.25, 0.5, 3.25, 0.0, 0.996, 0.04]


class TestLayout:
    def test_fresh_state_is_packed(self):
        state = tr.init_state(micro_config(), 8)
        for packed in state_sets(state).values():
            assert_packed(packed)
        layout = list(state.encoder.params.shapes.items())
        assert list(state.opt_m.shapes.items()) == layout
        assert list(state.opt_v.shapes.items()) == layout
        assert state.decay.shape == state.encoder.params.flat.shape

    def test_step_keeps_every_array(self):
        state = tr.init_state(micro_config(), 8)
        before = {
            label: (packed.flat, [id(v) for v in packed.values()])
            for label, packed in state_sets(state).items()
        }
        state, report = tr.train_step(state, micro_batch())
        assert report is not None
        for label, packed in state_sets(state).items():
            flat, ids = before[label]
            assert packed.flat is flat, label
            assert [id(v) for v in packed.values()] == ids, label
            assert_packed(packed)

    def test_loaded_state_is_packed(self, tmp_path):
        cfg = micro_config(precision="f32")
        state = tr.init_state(cfg, 8)
        state, _ = tr.train_step(state, micro_batch())
        tr.save_state(state, tmp_path / "s.bin")
        loaded = tr.state_from_checkpoint(tmp_path / "s.bin", cfg)
        for label, packed in state_sets(loaded).items():
            assert_packed(packed)
            assert packed.flat.dtype == np.float32, label
            expect = state_sets(state)[label].shapes.items()
            assert list(packed.shapes.items()) == list(expect), label
        np.testing.assert_array_equal(loaded.decay, state.decay)
        assert_packed(tr.encoder_from_checkpoint(tmp_path / "s.bin").params)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_checkpoint_holds_each_set_as_its_flat(self, tmp_path, precision):
        cfg = micro_config(precision=precision)
        state, _ = tr.train_step(tr.init_state(cfg, 8), micro_batch())
        tr.save_state(state, tmp_path / "s.bin")
        _vit, blobs, _meta = enc.read_checkpoint(tmp_path / "s.bin")
        assert list(blobs) == list(SETS)
        for name, packed in zip(SETS, state_sets(state).values()):
            assert blobs[name].dtype == cfg.dtype, name
            assert blobs[name].tobytes() == packed.flat.tobytes(), name

    def test_twin_of_the_encoders_size_is_rejected(self, tmp_path):
        sizes = {}

        def full_twin(blobs):
            sizes.update(theta=blobs["theta"].size, xi=blobs["xi"].size)
            return blobs | {"xi": blobs["theta"]}

        bad, named = self.rewritten(tmp_path, full_twin)
        message = named + re.escape(
            f"the checkpoint's 'xi' set has shape ({sizes['theta']},), but its "
            f"layout holds ({sizes['xi']},)"
        )
        with pytest.raises(ValueError, match=message):
            tr.state_from_checkpoint(bad, micro_config())

    def rewritten(self, tmp_path, edit=dict, edit_meta=dict):
        """A fresh f32 state's checkpoint with its blobs passed through
        ``edit`` and its meta through ``edit_meta``, and the start of the
        message that names it."""
        tr.save_state(tr.init_state(micro_config(), 8), tmp_path / "s.bin")
        vit_cfg, blobs, meta = enc.read_checkpoint(tmp_path / "s.bin")
        bad = tmp_path / "bad.bin"
        enc.write_checkpoint(bad, vit_cfg, edit(dict(blobs)), edit_meta(dict(meta)))
        return bad, "^" + re.escape(f"{bad}: ")

    def test_header_backbone_other_than_the_runs_is_rejected(self, tmp_path):
        tr.save_state(tr.init_state(micro_config(), 8), tmp_path / "s.bin")
        _vit, blobs, meta = enc.read_checkpoint(tmp_path / "s.bin")
        bad = tmp_path / "bad.bin"
        enc.write_checkpoint(bad, enc.vit_micro(8, head_out=32), blobs, meta)
        message = f"{bad}: the checkpoint's header backbone is not its run's"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            tr.state_from_checkpoint(bad, micro_config())

    @pytest.mark.parametrize("fault", ["every_blob", *SETS])
    def test_set_off_the_runs_precision_is_rejected(self, tmp_path, fault):
        """Every set in f64 under an f32 run, or one set in f64."""
        def widen(blobs):
            return blobs | {k: v.astype(np.float64) for k, v in blobs.items()
                            if fault in ("every_blob", k)}

        bad, named = self.rewritten(tmp_path, widen)
        name = "theta" if fault == "every_blob" else fault
        message = named + re.escape(
            f"the checkpoint's {name!r} set is float64, but the run computes in "
            f"float32"
        )
        with pytest.raises(ValueError, match=message):
            tr.state_from_checkpoint(bad, micro_config())
        # the encoder alone runs in its own precision
        dtype = np.float64 if name == "theta" else np.float32
        assert tr.encoder_from_checkpoint(bad).params.flat.dtype == dtype

    @pytest.mark.parametrize(
        "key,value",
        [
            ("run", [["seed", 0]]),
            ("run", "f32"),
            ("step", [1]),
            ("step", True),
            ("epoch", -1),
            ("total_steps", 4.0),
            ("warmup_steps", None),
            ("aborted", "0"),
        ],
    )
    def test_meta_of_another_type_is_rejected(self, tmp_path, key, value):
        bad, named = self.rewritten(tmp_path, edit_meta=lambda m: m | {key: value})
        with pytest.raises(ValueError, match=named + f"checkpoint meta {key} is "):
            tr.state_from_checkpoint(bad, micro_config())

    @pytest.mark.parametrize(
        "edit, message",
        [
            (dict(loss_history=5), "loss_history is not a list of 0 rows"),
            (dict(loss_history=[[1]]), "loss_history is not a list of 0 rows"),
            (dict(step=1, loss_history=[]), "loss_history is not a list of 1 rows"),
            (dict(step=1, loss_history=[ROW, ROW]),
             "loss_history is not a list of 1 rows"),
            (dict(step=1, loss_history=[ROW[:-1]]),
             "loss_history is not a list of 1 rows"),
            (dict(step=1, loss_history=[ROW[:-1] + [True]]),
             "loss_history is not a list of 1 rows"),
            (dict(step=1, loss_history=[ROW[:-1] + ["0.04"]]),
             "loss_history is not a list of 1 rows"),
            (dict(step=9), "step is 9, above total_steps 4"),
            (dict(warmup_steps=5), "warmup_steps is 5, not below total_steps 4"),
            (dict(warmup_steps=4), "warmup_steps is 4, not below total_steps 4"),
        ],
        ids=[
            "history_int", "history_row_of_one", "history_one_short",
            "history_one_long", "history_row_of_seven", "history_bool",
            "history_str", "step_above_total", "warmup_above_total",
            "warmup_at_total",
        ],
    )
    def test_meta_that_breaks_the_counters_facts_is_rejected(
        self, tmp_path, edit, message
    ):
        """A completed step appends one history row and advances ``step``,
        and a run's warmup ends before its last step."""
        bad, named = self.rewritten(tmp_path, edit_meta=lambda m: m | edit)
        with pytest.raises(ValueError, match=named + "checkpoint meta " + message):
            tr.state_from_checkpoint(bad, micro_config())

    @pytest.mark.parametrize("name", SETS)
    def test_missing_set_is_rejected_naming_the_file(self, tmp_path, name):
        bad, named = self.rewritten(tmp_path, lambda blobs: {
            k: v for k, v in blobs.items() if k != name
        })
        message = named + re.escape(f"checkpoint holds no {name!r} parameter set")
        with pytest.raises(ValueError, match=message):
            tr.state_from_checkpoint(bad, micro_config())
        if name == "theta":
            with pytest.raises(ValueError, match=message):
                tr.encoder_from_checkpoint(bad)

    def test_checkpoint_of_per_name_blobs_is_rejected(self, tmp_path):
        """The format before each set became one blob has no 'theta' blob."""
        bad, named = self.rewritten(
            tmp_path, lambda blobs: per_name(enc.vit_micro(8), blobs)
        )
        message = named + re.escape("checkpoint holds no 'theta' parameter set")
        with pytest.raises(ValueError, match=message):
            tr.state_from_checkpoint(bad, micro_config())
        with pytest.raises(ValueError, match=message):
            tr.encoder_from_checkpoint(bad)

    @pytest.mark.parametrize("fault", ["missing_block", "mis_shaped", "extra"])
    def test_encoder_off_its_backbone_layout_is_rejected(self, tmp_path, fault):
        def edit(blobs):
            theta = enc.Packed(enc.layout(enc.vit_micro(8)), blobs["theta"])
            if fault == "missing_block":
                kept = [v for k, v in theta.items() if not k.startswith("blocks.1.")]
                return blobs | {"theta": np.concatenate([v.ravel() for v in kept])}
            if fault == "mis_shaped":
                return blobs | {"theta": theta.flat.reshape(1, -1)}
            return blobs | {"theta": np.concatenate([theta.flat, theta["norm.g"]])}

        bad, named = self.rewritten(tmp_path, edit)
        message = named + re.escape("the checkpoint's 'theta' set has shape ")
        with pytest.raises(ValueError, match=message):
            tr.encoder_from_checkpoint(bad)
        with pytest.raises(ValueError, match=message):
            tr.state_from_checkpoint(bad, micro_config())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_encoder_is_rejected_naming_the_file(self, tmp_path, value):
        def spoil(blobs):
            theta = blobs["theta"].copy()
            theta[1234] = value
            return blobs | {"theta": theta}

        bad, named = self.rewritten(tmp_path, spoil)
        message = named + "the checkpoint's encoder holds non-finite weights"
        with pytest.raises(ValueError, match=message):
            tr.encoder_from_checkpoint(bad)
        with pytest.raises(ValueError, match=message):
            tr.state_from_checkpoint(bad, micro_config())

    @pytest.mark.parametrize("name", ["xi", "adam_m", "adam_v"])
    @pytest.mark.parametrize("fault", ["short", "long", "2-D"])
    def test_mis_shaped_set_is_rejected_naming_the_file(self, tmp_path, name, fault):
        def reshape(blobs):
            flat = blobs[name]
            return blobs | {name: {
                "short": flat[:-1],
                "long": np.concatenate([flat, flat[:1]]),
                "2-D": flat.reshape(-1, 1),
            }[fault]}

        bad, named = self.rewritten(tmp_path, reshape)
        message = named + re.escape(f"the checkpoint's {name!r} set has shape ")
        with pytest.raises(ValueError, match=message):
            tr.state_from_checkpoint(bad, micro_config())
        tr.encoder_from_checkpoint(bad)  # the encoder needs its own set only


class TestPretrain:
    def small_data(self, seed=0, per_class=4):
        return ds.synth_blobs(2, per_class, 8, True, seed=seed, noise_sigma=0.1)

    def test_one_epoch_two_batches_logs_two_rows(self, tmp_path):
        cfg = micro_config(epochs=1, warmup_epochs=0)
        final = tr.pretrain(cfg, self.small_data(), tmp_path)
        assert final.exists()
        with open(tmp_path / "train_log.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert tuple(rows[0]) == tr.CSV_COLUMNS
        assert len(rows) == 1 + 2
        assert [r[0] for r in rows[1:]] == ["0", "1"]

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_log_parses_back_to_the_loss_history(self, tmp_path, precision):
        # the log is written from the history, so it must hold it exactly
        cfg = micro_config(precision=precision)
        final = tr.pretrain(cfg, self.small_data(), tmp_path)
        with open(tmp_path / "train_log.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        parsed = [(int(r[0]), *map(float, r[1:])) for r in rows]
        history = tr.state_from_checkpoint(final, cfg).loss_history
        assert len(parsed) == 4
        assert parsed == history

    def test_two_runs_produce_identical_logs(self, tmp_path):
        cfg = micro_config()
        tr.pretrain(cfg, self.small_data(), tmp_path / "a")
        tr.pretrain(cfg, self.small_data(), tmp_path / "b")
        log_a = (tmp_path / "a" / "train_log.csv").read_bytes()
        log_b = (tmp_path / "b" / "train_log.csv").read_bytes()
        assert log_a == log_b

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        cfg = micro_config(epochs=4, warmup_epochs=1, checkpoint_every=2)
        data = self.small_data()
        final_full = tr.pretrain(cfg, data, tmp_path / "full")
        mid = tmp_path / "full" / "checkpoint_epoch0002.bin"
        assert mid.exists()
        final_res = tr.pretrain(cfg, data, tmp_path / "res", resume_from=mid)
        full = tr.state_from_checkpoint(final_full, cfg)
        res = tr.state_from_checkpoint(final_res, cfg)
        assert full.step == res.step
        assert_params_equal(full.encoder.params, res.encoder.params)
        assert_params_equal(full.momentum.params, res.momentum.params)
        assert_params_equal(full.opt_m, res.opt_m)
        assert full.loss_history == res.loss_history
        # into an empty directory, the log too is the uninterrupted run's
        for name in ("train_log.csv", "checkpoint_final.bin"):
            full_bytes = (tmp_path / "full" / name).read_bytes()
            assert (tmp_path / "res" / name).read_bytes() == full_bytes, name

    def test_resume_under_another_checkpoint_every_reproduces_the_run(
        self, tmp_path
    ):
        cfg = micro_config(epochs=4, warmup_epochs=1, checkpoint_every=2)
        tr.pretrain(cfg, self.small_data(), tmp_path / "full")
        mid = tmp_path / "full" / "checkpoint_epoch0002.bin"
        other = dataclasses.replace(cfg, checkpoint_every=1)
        tr.pretrain(other, self.small_data(), tmp_path / "res", resume_from=mid)
        assert (tmp_path / "res" / "checkpoint_epoch0003.bin").exists()
        for name in ("train_log.csv", "checkpoint_epoch0004.bin",
                     "checkpoint_final.bin"):
            full_bytes = (tmp_path / "full" / name).read_bytes()
            assert (tmp_path / "res" / name).read_bytes() == full_bytes, name

    @pytest.fixture(scope="class")
    def first_epoch(self, tmp_path_factory):
        """The epoch-1 checkpoint of micro_config() on small_data()."""
        out = tmp_path_factory.mktemp("run")
        tr.pretrain(micro_config(checkpoint_every=1), self.small_data(), out)
        return out / "checkpoint_epoch0001.bin"

    @pytest.mark.parametrize(
        "change, differs",
        [
            # the four checks this rule replaced: backbone, precision, seed
            # and run length (epochs, warmup, batch size)
            (dict(vit=enc.vit_micro(16)), ["vit.image_side 8 recorded, 16 configured"]),
            (dict(precision="f64"), ["precision f32 recorded, f64 configured"]),
            (dict(seed=5), ["seed 0 recorded, 5 configured"]),
            (dict(epochs=4), ["epochs 2 recorded, 4 configured"]),
            (dict(warmup_epochs=0), ["warmup_epochs 1 recorded, 0 configured"]),
            (dict(batch_size=2), ["batch_size 4 recorded, 2 configured"]),
            # the fields that no check covered
            (dict(vit=enc.vit_micro(8, head_out=32)),
             ["vit.head_out 64 recorded, 32 configured"]),
            (dict(aug=au.AugConfig(flip_prob=0.3)),
             ["aug.flip_prob 0.5 recorded, 0.3 configured"]),
            (dict(base_lr=2e-3), ["base_lr 0.001 recorded, 0.002 configured"]),
            (dict(mix_count=3), ["mix_count 2 recorded, 3 configured"]),
            (dict(temperature=0.1), ["temperature 0.2 recorded, 0.1 configured"]),
            (dict(weight_decay=(0.04, 0.5)),
             ["weight_decay [0.04, 0.4] recorded, [0.04, 0.5] configured"]),
            (dict(momentum_mu=(0.99, 1.0)),
             ["momentum_mu [0.996, 1.0] recorded, [0.99, 1.0] configured"]),
            (dict(grad_clip=1.0), ["grad_clip None recorded, 1.0 configured"]),
            (dict(loss_weights=(1.0, 1.0, 0.5)),
             ["loss_weights [1.0, 1.0, 1.0] recorded, [1.0, 1.0, 0.5] configured"]),
            # every field that differs is named, in name order
            (dict(seed=5, aug=au.AugConfig(flip_prob=0.3)),
             ["aug.flip_prob 0.5 recorded, 0.3 configured",
              "seed 0 recorded, 5 configured"]),
            # other images of the same size
            ("data", ["data"]),
        ],
        ids=[
            "backbone", "precision", "seed", "epochs", "warmup_epochs",
            "batch_size", "head_out", "aug", "base_lr", "mix_count", "temperature",
            "weight_decay", "momentum_mu", "grad_clip", "loss_weights",
            "two_fields", "data",
        ],
    )
    def test_resume_of_another_run_rejected(
        self, first_epoch, tmp_path, monkeypatch, change, differs
    ):
        data, cfg = self.small_data(), micro_config()
        if change == "data":
            other = self.small_data(seed=1)
            assert other.images.shape == data.images.shape
            differs = [
                f"data {tr._fingerprint(data.images)} recorded, "
                f"{tr._fingerprint(other.images)} configured"
            ]
            data = other
        elif change in (dict(batch_size=2), dict(mix_count=3)):
            # both wrap the mix-to-mix window: 2 <= 2*2 - 2 and 4 <= 2*3 - 2
            with pytest.warns(UserWarning, match=DUPLICATE_TARGETS):
                cfg = dataclasses.replace(cfg, **change)
        else:
            cfg = dataclasses.replace(cfg, **change)
        steps = []
        monkeypatch.setattr(tr, "train_step", lambda *a: steps.append(a))
        out = tmp_path / "out"
        with pytest.raises(ValueError) as err:
            tr.pretrain(cfg, data, out, resume_from=first_epoch)
        head, *listed = str(err.value).split("; ")
        assert head == f"{first_epoch}: checkpoint of another run"
        assert listed == differs
        assert steps == []
        assert list(out.iterdir()) == []  # no log, no row

    @pytest.mark.parametrize("resume", [False, True])
    def test_data_hashed_once_per_call_and_after_a_fresh_runs_first_step(
        self, tmp_path, monkeypatch, resume
    ):
        cfg = micro_config(checkpoint_every=1)
        mid = None
        if resume:
            tr.pretrain(cfg, self.small_data(), tmp_path / "a")
            mid = tmp_path / "a" / "checkpoint_epoch0001.bin"
        events, step, digest = [], tr.train_step, tr._fingerprint
        monkeypatch.setattr(
            tr, "train_step", lambda *a: events.append("step") or step(*a)
        )
        monkeypatch.setattr(
            tr, "_fingerprint", lambda x: events.append("hash") or digest(x)
        )
        tr.pretrain(cfg, self.small_data(), tmp_path / "b", resume_from=mid)
        steps = ["step"] * (2 if resume else 4)
        expect = ["hash"] + steps if resume else steps[:2] + ["hash"] + steps[2:]
        assert events == expect

    def test_resume_in_place_rewrites_log_from_checkpoint_step(self, tmp_path):
        cfg = micro_config(epochs=4, warmup_epochs=1, checkpoint_every=1)
        tr.pretrain(cfg, self.small_data(), tmp_path)
        full_log = (tmp_path / "train_log.csv").read_bytes()
        final = (tmp_path / "checkpoint_final.bin").read_bytes()
        for epoch in (1, 2, 3):
            mid = tmp_path / f"checkpoint_epoch{epoch:04d}.bin"
            tr.pretrain(cfg, self.small_data(), tmp_path, resume_from=mid)
            assert (tmp_path / "train_log.csv").read_bytes() == full_log, epoch
            assert (tmp_path / "checkpoint_final.bin").read_bytes() == final, epoch

    def test_resume_drops_a_row_cut_inside_its_step(self, tmp_path):
        cfg = micro_config(epochs=6, warmup_epochs=1, checkpoint_every=3)
        tr.pretrain(cfg, self.small_data(), tmp_path)
        log = tmp_path / "train_log.csv"
        full_log = log.read_bytes()
        # an append interrupted after the "1" of row 10; the checkpoint of
        # epoch 3 is at step 6, so the remnant reads as a step below it
        cut = full_log.index(b"\n10,") + 2
        log.write_bytes(full_log[:cut])
        mid = tmp_path / "checkpoint_epoch0003.bin"
        assert tr.state_from_checkpoint(mid, cfg).step == 6
        tr.pretrain(cfg, self.small_data(), tmp_path, resume_from=mid)
        assert log.read_bytes() == full_log

    def test_resume_rewrites_a_cut_header(self, tmp_path):
        cfg = micro_config(epochs=6, warmup_epochs=1, checkpoint_every=3)
        tr.pretrain(cfg, self.small_data(), tmp_path / "full")
        full_log = (tmp_path / "full" / "train_log.csv").read_bytes()
        log = tmp_path / "res" / "train_log.csv"
        log.parent.mkdir()
        log.write_bytes(full_log[:9])  # "step,l_mt", cut inside the header
        mid = tmp_path / "full" / "checkpoint_epoch0003.bin"
        tr.pretrain(cfg, self.small_data(), tmp_path / "res", resume_from=mid)
        assert log.read_bytes() == full_log

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, by design
    def test_diverging_run_stops_with_an_error(self, tmp_path):
        # step 1 leaves non-finite weights mid-epoch, so the run stops there
        with pytest.warns(UserWarning, match=DUPLICATE_TARGETS):
            cfg = micro_config(base_lr=1e200, epochs=3, batch_size=2)
        with pytest.raises(ValueError, match=r"^step 1 .* the run has diverged$"):
            tr.pretrain(cfg, self.small_data(), tmp_path)
        with open(tmp_path / "train_log.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert tuple(rows[0]) == tr.CSV_COLUMNS
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train_log.csv"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, by design
    def test_weights_turned_non_finite_at_an_epoch_end_leave_no_checkpoint(
        self, tmp_path
    ):
        # step 1 ends epoch 1 with non-finite weights; the epoch's checkpoint
        # would hold them, so none is written
        with pytest.warns(UserWarning, match=DUPLICATE_TARGETS):
            cfg = tr.TrainConfig(enc.vit_micro(8), base_lr=1e200, epochs=3,
                                 warmup_epochs=1, batch_size=4, checkpoint_every=1)
        with pytest.raises(ValueError, match=r"^step 1 .* the run has diverged$"):
            tr.pretrain(cfg, ds.synth_blobs(2, 4, 8, True, seed=0), tmp_path)
        with open(tmp_path / "train_log.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train_log.csv"]

    def test_resume_from_a_diverged_checkpoint_is_rejected_on_load(
        self, tmp_path, monkeypatch
    ):
        cfg = micro_config(epochs=3)
        state, _ = tr.train_step(tr.init_state(cfg, 8), micro_batch())
        state.encoder.params["norm.g"][0] = np.inf
        old = tmp_path / "old.bin"
        tr.save_state(state, old)
        steps = []
        monkeypatch.setattr(tr, "train_step", lambda *a: steps.append(a))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="^" + re.escape(f"{old}: ") + ".*non-finite"):
            tr.pretrain(cfg, self.small_data(), out, resume_from=old)
        assert steps == []
        assert list(out.iterdir()) == []  # no log, no row

    def test_abort_with_finite_weights_is_skipped_and_the_run_finishes(
        self, tmp_path, monkeypatch
    ):
        real, calls = tr.ob.loss_total, []

        def poisoned_once(cb, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                return ob.LossReport(math.nan, math.nan, math.nan, math.nan), None
            return real(cb, **kwargs)

        monkeypatch.setattr(tr.ob, "loss_total", poisoned_once)
        cfg = micro_config(epochs=3)
        final = tr.pretrain(cfg, self.small_data(), tmp_path)
        state = tr.state_from_checkpoint(final, cfg)
        with open(tmp_path / "train_log.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert (state.step, state.aborted, state.epoch) == (5, 1, 3)
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4]

    def test_loss_decreases_on_easy_data(self, tmp_path):
        cfg = micro_config(
            epochs=25, warmup_epochs=2, base_lr=2e-3, batch_size=4, seed=3
        )
        data = self.small_data(per_class=4)
        tr.pretrain(cfg, data, tmp_path)
        with open(tmp_path / "train_log.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        total = [float(r["l_total"]) for r in rows]
        assert len(total) == 50
        assert np.mean(total[40:50]) < np.mean(total[:10])
