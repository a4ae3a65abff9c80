import math
import warnings

import numpy as np
import pytest

from patchmix import autodiff as ad
from patchmix import datasets as ds
from patchmix import encoder as enc
from patchmix import evaluation as ev
from patchmix import patch_ops as po


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def axis_bank() -> ev.FeatureBank:
    # six unit vectors: two per class on three orthogonal axes
    feats = np.repeat(np.eye(3), 2, axis=0)
    labels = np.array([0, 0, 1, 1, 2, 2])
    return ev.FeatureBank(feats, labels, 3)


class TestFeatureBank:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="agree"):
            ev.FeatureBank(np.eye(3), np.zeros(2, dtype=np.int64), 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ev.FeatureBank(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 2)

    def test_non_unit_rows_rejected_with_row_index(self):
        feats = np.eye(3)
        feats[1] *= 2.0
        with pytest.raises(ValueError, match="row 1"):
            ev.FeatureBank(feats, np.zeros(3, dtype=np.int64), 1)

    def test_non_finite_rows_rejected(self):
        feats = np.eye(3)
        feats[2, 0] = np.nan
        with pytest.raises(ValueError, match="row 2 has norm nan"):
            ev.FeatureBank(feats, np.zeros(3, dtype=np.int64), 1)

    def test_labels_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            ev.FeatureBank(np.eye(3), np.array([0, 1, 3]), 3)

    def test_count(self):
        assert axis_bank().count == 6


class TestKnn:
    def test_k1_returns_nearest_neighbour_label(self):
        bank = axis_bank()
        queries = unit(np.array([[0.9, 0.1, 0.0], [0.0, 0.1, 0.9]]))
        preds, acc = ev.knn_classify(bank, queries, k=1, query_labels=[0, 2])
        assert preds.tolist() == [0, 2]
        assert acc == 1.0

    def test_antipodal_features_fully_separable(self):
        rng = np.random.default_rng(0)
        direction = unit(rng.normal(size=4))
        feats = np.concatenate([np.tile(direction, (8, 1)), np.tile(-direction, (8, 1))])
        labels = np.array([0] * 8 + [1] * 8)
        bank = ev.FeatureBank(feats, labels, 2)
        noise = rng.normal(0, 0.05, size=(16, 4))
        queries = np.concatenate([direction + noise[:8], -direction + noise[8:]])
        _, acc = ev.knn_classify(bank, queries, k=5, query_labels=labels)
        assert acc == 1.0

    def test_vote_weighting_beats_raw_majority(self):
        # two far class-1 rows outvote three near-orthogonal class-0 rows
        feats = unit(
            np.array(
                [
                    [1.0, 0.02, 0.0],
                    [1.0, -0.02, 0.0],
                    [0.0, 1.0, 0.0],
                    [0.0, 1.0, 0.01],
                    [0.01, 1.0, 0.0],
                ]
            )
        )
        labels = np.array([1, 1, 0, 0, 0])
        bank = ev.FeatureBank(feats, labels, 2)
        preds, _ = ev.knn_classify(bank, np.array([[1.0, 0.0, 0.0]]), k=5)
        assert preds.tolist() == [1]

    def test_exact_tie_prefers_smaller_class(self):
        feats = unit(np.array([[1.0, 1.0], [1.0, 1.0]]))
        bank = ev.FeatureBank(feats, np.array([1, 0]), 2)
        preds, _ = ev.knn_classify(bank, np.array([[1.0, 1.0]]), k=2)
        assert preds.tolist() == [0]

    def test_query_rescaling_is_irrelevant(self):
        bank = axis_bank()
        rng = np.random.default_rng(1)
        q = rng.normal(size=(5, 3))
        p1, _ = ev.knn_classify(bank, q, k=3)
        p2, _ = ev.knn_classify(bank, q * 37.0, k=3)
        np.testing.assert_array_equal(p1, p2)

    def test_k_equal_to_bank_size_allowed(self):
        bank = axis_bank()
        preds, _ = ev.knn_classify(bank, np.eye(3), k=6)
        assert preds.shape == (3,)

    def test_k_out_of_range_rejected(self):
        bank = axis_bank()
        with pytest.raises(ValueError, match="k must"):
            ev.knn_classify(bank, np.eye(3), k=0)
        with pytest.raises(ValueError, match="k must"):
            ev.knn_classify(bank, np.eye(3), k=7)

    @pytest.mark.parametrize("k", [2.0, True, "3", None])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer in"):
            ev.knn_classify(axis_bank(), np.eye(3), k=k)

    def test_accuracy_none_without_labels(self):
        _, acc = ev.knn_classify(axis_bank(), np.eye(3), k=1)
        assert acc is None

    @pytest.mark.parametrize("tau", [0.0, -0.07, np.nan, np.inf, -np.inf])
    def test_tau_outside_zero_to_inf_rejected(self, tau):
        message = f"tau must be finite and at least 0.0015, got {tau}"
        with pytest.raises(ValueError, match=message):
            ev.knn_classify(axis_bank(), np.eye(3), k=1, tau=tau)

    # below 0.0015 a vote exp(sim / tau) can overflow: at tau 0.001 it did,
    # and the argmax tie of the infinite votes went to the smallest class
    @pytest.mark.parametrize("tau", [0.001, 0.0014, 0.00149, 5e-324])
    def test_tau_at_which_a_vote_can_overflow_rejected(self, tau):
        with pytest.raises(ValueError, match=f"at least 0.0015, got {tau}"):
            ev.knn_classify(axis_bank(), np.eye(3), k=1, tau=tau)

    @pytest.mark.parametrize("tau", [0.07, 0.01, 0.0015])
    def test_small_tau_votes_for_the_nearest_row(self, tau):
        # the query e0's nearest row (sim 1.0) is class 1, and two class-0
        # rows have sim 0.95: class 1 wins the three votes at any tau below
        # 0.05 / log 2 ~ 0.072, as long as no vote overflows
        side = np.sqrt(1.0 - 0.95**2)
        feats = np.array([[1.0, 0, 0], [0.95, side, 0], [0.95, 0, side]])
        bank = ev.FeatureBank(feats, np.array([1, 0, 0]), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing exp would warn
            preds, _ = ev.knn_classify(bank, np.eye(3)[:1], k=3, tau=tau)
        assert preds.tolist() == [1]

    def test_floor_tau_keeps_the_votes_of_a_bank_row_off_unit_norm_finite(self):
        # a bank row may be 1e-6 longer than unit, and every vote may reach
        # the same class
        feats = np.tile([[1.0 + 1e-6, 0.0]], (64, 1))
        bank = ev.FeatureBank(feats, np.zeros(64, dtype=np.int64), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            preds, _ = ev.knn_classify(bank, np.eye(2)[:1], k=64, tau=0.0015)
        assert preds.tolist() == [0]

    def test_tiny_and_large_tau_accepted(self):
        for tau in (0.01, 100.0):
            _, acc = ev.knn_classify(
                axis_bank(), np.eye(3), k=2, tau=tau, query_labels=[0, 1, 2]
            )
            assert acc == 1.0

    @pytest.mark.parametrize(
        "value,norm", [(0.0, "0.00000000"), (np.nan, "nan"), (np.inf, "inf")]
    )
    def test_query_without_a_direction_rejected(self, value, norm):
        # normalised, such a row is NaN and would be predicted as class 0
        q = np.eye(3)
        q[1] = value
        q[2] = 0.0
        with pytest.raises(ValueError, match=f"row 1 has norm {norm}"):
            ev.knn_classify(axis_bank(), q, k=1, query_labels=[0, 1, 2])


class TestLinearProbe:
    def test_separable_features_reach_high_accuracy(self):
        rng = np.random.default_rng(2)
        n = 40
        centers = np.eye(4)
        labels = np.tile(np.arange(4), n // 4)
        feats = unit(centers[labels] + rng.normal(0, 0.1, size=(n, 4)))
        train = ev.FeatureBank(feats[: n // 2], labels[: n // 2], 4)
        val = ev.FeatureBank(feats[n // 2 :], labels[n // 2 :], 4)
        assert ev.linear_probe(train, val, epochs=200, lr=0.5) >= 0.99

    def test_shuffled_labels_score_near_chance(self):
        rng = np.random.default_rng(3)
        n, classes = 200, 2
        feats = unit(rng.normal(size=(n, 8)))
        labels = rng.integers(0, classes, size=n)
        train = ev.FeatureBank(feats[: n // 2], labels[: n // 2], classes)
        val = ev.FeatureBank(feats[n // 2 :], labels[n // 2 :], classes)
        acc = ev.linear_probe(train, val, epochs=50, lr=0.1)
        assert abs(acc - 1.0 / classes) <= 0.15

    def test_deterministic_given_seed(self):
        bank = axis_bank()
        a = ev.linear_probe(bank, bank, epochs=20, seed=5)
        b = ev.linear_probe(bank, bank, epochs=20, seed=5)
        assert a == b

    @pytest.mark.parametrize("epochs", [0, -3, 2.0, True, None])
    def test_epochs_must_be_a_positive_integer(self, epochs):
        # no epoch would leave the random probe's accuracy
        bank = axis_bank()
        with pytest.raises(ValueError, match="probe epochs must be an integer >= 1"):
            ev.linear_probe(bank, bank, epochs=epochs)

    @pytest.mark.parametrize("lr", [0.0, -1.0, math.nan, math.inf, -math.inf, "0.1"])
    def test_lr_must_be_finite_and_positive(self, lr):
        # a NaN rate makes NaN weights, a negative one ascends
        bank = axis_bank()
        with pytest.raises(ValueError, match="probe lr must be a finite positive real"):
            ev.linear_probe(bank, bank, epochs=1, lr=lr)


@pytest.fixture(scope="module")
def micro_params():
    return enc.init_encoder(enc.vit_micro(8), np.random.default_rng(7))


@pytest.fixture(scope="module")
def micro_params_f32():
    return enc.init_encoder(enc.vit_micro(8), np.random.default_rng(7), np.float32)


@pytest.fixture(scope="module")
def tiny_data():
    return ds.synth_blobs(2, 8, 8, True, seed=11, noise_sigma=0.05)


class TestFeatureExtraction:
    def test_rows_unit_norm_and_batching_invariant(self, micro_params, tiny_data):
        full = ev.extract_features(micro_params, tiny_data.images, batch_size=256)
        chunked = ev.extract_features(micro_params, tiny_data.images, batch_size=3)
        np.testing.assert_allclose(
            np.linalg.norm(full, axis=1), 1.0, atol=1e-12
        )
        np.testing.assert_allclose(full, chunked, atol=1e-12)

    def test_f64_encoder_features_are_the_backbone_run_as_is(
        self, micro_params, tiny_data
    ):
        # the cast to the encoder's precision is a no-op in f64
        cfg = micro_params.config
        pb = po.patchify(po.ImageBatch(tiny_data.images), cfg.patch_side)
        tv = enc.bind(micro_params.params)
        rep = enc.forward_backbone(cfg, tv, pb).data
        expected = rep / np.linalg.norm(rep, axis=1, keepdims=True)
        feats = ev.extract_features(micro_params, tiny_data.images)
        assert feats.dtype == np.float64
        assert feats.tobytes() == expected.tobytes()

    def test_f32_encoder_computes_in_f32(
        self, micro_params_f32, tiny_data, monkeypatch
    ):
        params = micro_params_f32
        outputs = set()  # the dtype of every primitive's output
        node = ad._node

        def recording_node(value, *edges):
            out = node(value, *edges)
            outputs.add(out.data.dtype)
            return out

        monkeypatch.setattr(ad, "_node", recording_node)
        feats = ev.extract_features(params, tiny_data.images)
        monkeypatch.undo()
        assert outputs == {np.dtype(np.float32)}
        assert feats.dtype == np.float32
        bank = ev.FeatureBank(feats, tiny_data.labels, tiny_data.num_classes)
        assert bank.count == tiny_data.count
        # the same weights in f64 give features within f32 rounding
        wide = enc.EncoderParams(
            params.config,
            enc.Packed(params.params.shapes, params.params.flat.astype(np.float64)),
        )
        np.testing.assert_allclose(
            feats, ev.extract_features(wide, tiny_data.images), atol=1e-5
        )

    def test_build_bank_carries_labels(self, micro_params, tiny_data):
        bank = ev.build_bank(micro_params, tiny_data)
        assert bank.count == tiny_data.count
        np.testing.assert_array_equal(bank.labels, tiny_data.labels)
        assert bank.num_classes == 2


class TestAttentionMaps:
    def test_shape_and_mass_bounds(self, micro_params):
        rng = np.random.default_rng(9)
        maps = ev.attention_maps(micro_params, rng.random((3, 8, 8)))
        cfg = micro_params.config
        assert maps.shape == (cfg.heads, cfg.grid_side, cfg.grid_side)
        assert np.all(maps >= 0.0)
        sums = maps.reshape(cfg.heads, -1).sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-12)

    def test_f32_encoder_maps_are_f32(self, micro_params_f32):
        img = np.random.default_rng(9).random((3, 8, 8))
        assert ev.attention_maps(micro_params_f32, img).dtype == np.float32

    def test_deterministic(self, micro_params):
        rng = np.random.default_rng(10)
        img = rng.random((3, 8, 8))
        a = ev.attention_maps(micro_params, img)
        b = ev.attention_maps(micro_params, img)
        np.testing.assert_array_equal(a, b)
