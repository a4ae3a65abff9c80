import copy
import csv
import math

import numpy as np
import pytest

from patchmix import datasets as ds
from patchmix import encoder as enc
from patchmix import objectives as ob
from patchmix import patch_ops as po
from patchmix import trainer as tr
from patchmix.autodiff import Tape


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


class TestOptimizer:
    def setup_method(self):
        self.params = {"layer.w": np.ones((2, 2)), "layer.b": np.ones(2)}
        self.moments = (
            {k: np.zeros_like(v) for k, v in self.params.items()},
            {k: np.zeros_like(v) for k, v in self.params.items()},
        )

    def zero_grads(self):
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def test_zero_grads_no_decay_is_identity(self):
        before = flat_params(self.params)
        tr.optimizer_update(
            self.params, self.zero_grads(), 0.1, 0.0, self.moments, step=1
        )
        assert_params_equal(self.params, before)

    def test_zero_grads_decay_shrinks_non_exempt(self):
        tr.optimizer_update(
            self.params, self.zero_grads(), 0.1, 0.5, self.moments, step=1
        )
        np.testing.assert_array_equal(
            self.params["layer.w"], np.full((2, 2), 1.0 - 0.1 * 0.5)
        )
        # biases are exempt from decay
        np.testing.assert_array_equal(self.params["layer.b"], np.ones(2))

    def test_first_step_is_unit_scaled(self):
        # grad of theta^2/2 at theta=1 is 1; bias-corrected Adam moves ~lr
        params = {"x.w": np.array([1.0])}
        moments = ({"x.w": np.zeros(1)}, {"x.w": np.zeros(1)})
        tr.optimizer_update(params, {"x.w": np.array([1.0])}, 0.1, 0.0, moments, 1)
        assert abs(params["x.w"][0] - 0.9) <= 1e-7

    def test_updates_in_place(self):
        out = tr.optimizer_update(
            self.params, self.zero_grads(), 0.1, 0.5, self.moments, step=1
        )
        assert out is self.params

    def test_moments_accumulate(self):
        g = {"layer.w": np.full((2, 2), 2.0), "layer.b": np.zeros(2)}
        tr.optimizer_update(self.params, g, 0.1, 0.0, self.moments, step=1)
        np.testing.assert_allclose(self.moments[0]["layer.w"], 0.1 * 2.0)
        np.testing.assert_allclose(self.moments[1]["layer.w"], 0.001 * 4.0)

    def test_clip_rescales_to_max_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        tr._clip_gradients(grads, 1.0)
        total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert abs(total - 1.0) <= 1e-12
        assert abs(grads["a"][0] / grads["b"][0] - 3.0 / 4.0) <= 1e-12

    def test_clip_leaves_small_gradients_alone(self):
        grads = {"a": np.array([0.3])}
        tr._clip_gradients(grads, 1.0)
        assert grads["a"][0] == 0.3


class TestConfigValidation:
    def test_warmup_must_be_below_epochs(self):
        with pytest.raises(ValueError, match="warmup"):
            micro_config(epochs=2, warmup_epochs=2)

    def test_mix_count_bounded_by_batch(self):
        with pytest.raises(ValueError, match="mix count"):
            micro_config(batch_size=2, mix_count=3)

    def test_loss_weights_validated(self):
        with pytest.raises(ValueError, match="weights"):
            micro_config(loss_weights=(1.0, -1.0, 1.0))
        with pytest.raises(ValueError, match="weights"):
            micro_config(loss_weights=(1.0, 1.0))

    def test_precision_validated(self):
        with pytest.raises(ValueError, match="precision"):
            micro_config(precision="f16")


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
        xi_old = enc.MomentumParams(
            cfg.vit,
            flat_params(state.momentum.params),
            flat_params(state.momentum.buffers),
        )
        mu = tr.schedule(
            0, state.total_steps, 0, cfg.momentum_mu[0], cfg.momentum_mu[1], "cosine"
        )
        state, _ = tr.train_step(state, micro_batch())
        expected = enc.ema_update(state.encoder, xi_old, mu)
        assert_params_equal(state.momentum.params, expected.params)
        assert_params_equal(state.momentum.buffers, expected.buffers)

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
        params_before = flat_params(state.encoder.params)
        buffers_before = flat_params(state.encoder.buffers)

        def poisoned(cb, **kwargs):
            return ob.LossReport(math.nan, math.nan, math.nan, math.nan), None

        monkeypatch.setattr(tr.ob, "loss_total", poisoned)
        state, report = tr.train_step(state, micro_batch())
        assert report is None
        assert state.step == 0
        assert state.loss_history == []
        assert_params_equal(state.encoder.params, params_before)
        assert_params_equal(state.encoder.buffers, buffers_before)

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
                tapes.append(self)

            def _accumulate(self, t, delta):
                self.deltas.append(np.asarray(delta).dtype)
                super()._accumulate(t, delta)

        monkeypatch.setattr(tr, "Tape", RecordingTape)
        state = tr.init_state(micro_config(precision="f32"), 8)
        state, report = tr.train_step(state, micro_batch())
        assert report is not None
        (tape,) = tapes
        outputs = {out.data.dtype for out, _backward in tape._nodes}
        assert outputs == {np.dtype(np.float32)}
        assert set(tape.deltas) == {np.dtype(np.float32)}
        for group in (
            state.encoder.params,
            state.encoder.buffers,
            state.momentum.params,
            state.momentum.buffers,
            state.opt_m,
            state.opt_v,
        ):
            assert {v.dtype for v in group.values()} == {np.dtype(np.float32)}


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
        assert_params_equal(loaded.encoder.buffers, state.encoder.buffers)
        assert_params_equal(loaded.momentum.params, state.momentum.params)
        assert_params_equal(loaded.opt_m, state.opt_m)
        assert_params_equal(loaded.opt_v, state.opt_v)

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

    def test_backbone_mismatch_rejected(self, tmp_path):
        cfg = micro_config()
        state = tr.init_state(cfg, 8)
        tr.save_state(state, tmp_path / "s.bin")
        other = micro_config(vit=enc.vit_micro(16))
        with pytest.raises(ValueError, match="backbone"):
            tr.state_from_checkpoint(tmp_path / "s.bin", other)


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

    def test_resume_in_place_rewrites_log_from_checkpoint_step(self, tmp_path):
        cfg = micro_config(epochs=4, warmup_epochs=1, checkpoint_every=2)
        tr.pretrain(cfg, self.small_data(), tmp_path)
        full_log = (tmp_path / "train_log.csv").read_bytes()
        mid = tmp_path / "checkpoint_epoch0002.bin"
        tr.pretrain(cfg, self.small_data(), tmp_path, resume_from=mid)
        assert (tmp_path / "train_log.csv").read_bytes() == full_log

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
