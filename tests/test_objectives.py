import math

import numpy as np
import pytest

from patchmix import autodiff as ad
from patchmix import mixing as mx
from patchmix import objectives as ob
from patchmix import patch_ops as po


def make_plan(n: int, m: int, t: int = 16, seed: int = 0) -> mx.MixPlan:
    perm = po.sample_permutation(t, np.random.default_rng(seed))
    return mx.plan_mix(mx.MixConfig(images=n, groups=m, tokens=t), perm)


def unit_rows(n: int, d: int, seed: int) -> np.ndarray:
    v = np.random.default_rng(seed).normal(size=(n, d))
    return v


def batch(n: int, m: int, d: int = 8, seed: int = 0, tau: float = 0.2):
    rng = np.random.default_rng(seed)
    plan = make_plan(n, m, seed=seed)
    return ob.ContrastBatch(
        h_mix1=rng.normal(size=(n, d)),
        h_view2=rng.normal(size=(n, d)),
        z_view1=rng.normal(size=(n, d)),
        z_view2=rng.normal(size=(n, d)),
        z_mix2=rng.normal(size=(n, d)),
        plan=plan,
        temperature=tau,
    )


def loop_loss_mto(h, z, y, tau):
    """Independent oracle: explicit loops and math.log only."""
    n, m = y.shape
    hn = h / np.linalg.norm(h, axis=1, keepdims=True)
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    total = 0.0
    for i in range(n):
        logits = [float(hn[i] @ zn[j]) / tau for j in range(n)]
        denom = sum(math.exp(v) for v in logits)
        for k in range(m):
            total -= math.log(math.exp(logits[y[i, k]]) / denom)
    return total / (n * m)


def loop_loss_mtm(h, z, y, w, tau):
    n, width = y.shape
    hn = h / np.linalg.norm(h, axis=1, keepdims=True)
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    total = 0.0
    for i in range(n):
        logits = [float(hn[i] @ zn[j]) / tau for j in range(n)]
        denom = sum(math.exp(v) for v in logits)
        for k in range(width):
            total -= w[i, k] * math.log(math.exp(logits[y[i, k]]) / denom)
    return total / n


class TestClosedForms:
    @pytest.mark.parametrize("n,m", [(4, 2), (9, 3), (16, 3)])
    def test_identical_embeddings_hit_uniform_level(self, n, m):
        same = np.tile(np.full(6, 0.5), (n, 1))
        plan = make_plan(n, m)
        cb = ob.ContrastBatch(same, same, same, same, same, plan)
        report, _ = ob.loss_total(cb)
        assert abs(report.l_oto - math.log(n)) <= 1e-9
        assert abs(report.l_mto - math.log(n)) <= 1e-9
        assert abs(report.l_mtm - m * math.log(n)) <= 1e-9
        assert abs(report.l_total - (m + 2) * math.log(n)) <= 1e-9

    def test_window_one_mtm_equals_oto(self):
        # M=1: single target (the image itself), weight exactly 1
        n, d = 6, 5
        plan = make_plan(n, 1)
        h, z = unit_rows(n, d, 1), unit_rows(n, d, 2)
        mtm = ob.loss_mtm(
            h, z, plan.mixed_targets, plan.mixed_weights, tau=0.2
        )
        oto = ob.loss_oto(h, z, tau=0.2)
        assert float(mtm.data) == float(oto.data)


class TestLoopOracles:
    def test_mto_matches_loops(self):
        cb = batch(5, 3, seed=7)
        got = ob.loss_mto(
            cb.h_mix1, cb.z_view2, cb.plan.origin_targets, cb.temperature
        )
        expect = loop_loss_mto(
            cb.h_mix1.data, cb.z_view2.data, cb.plan.origin_targets, 0.2
        )
        assert abs(float(got.data) - expect) <= 1e-12

    def test_mtm_matches_loops(self):
        cb = batch(7, 3, seed=8)
        got = ob.loss_mtm(
            cb.h_mix1,
            cb.z_mix2,
            cb.plan.mixed_targets,
            cb.plan.mixed_weights,
            cb.temperature,
        )
        expect = loop_loss_mtm(
            cb.h_mix1.data,
            cb.z_mix2.data,
            cb.plan.mixed_targets,
            cb.plan.mixed_weights,
            0.2,
        )
        assert abs(float(got.data) - expect) <= 1e-12

    def test_oto_matches_loops(self):
        n = 6
        h, z = unit_rows(n, 8, 3), unit_rows(n, 8, 4)
        got = ob.loss_oto(h, z, tau=0.2)
        y = np.arange(n)[:, None]
        w = np.ones((n, 1))
        expect = loop_loss_mtm(h, z, y, w, 0.2)
        assert abs(float(got.data) - expect) <= 1e-12


class TestProperties:
    def test_all_losses_nonnegative(self):
        for seed in range(5):
            cb = batch(6, 3, seed=seed)
            report, _ = ob.loss_total(cb)
            assert report.l_mto >= 0 and report.l_mtm >= 0
            assert report.l_oto >= 0 and report.l_total >= 0

    def test_term_weights_select_single_loss(self):
        cb = batch(5, 2, seed=9)
        report, total = ob.loss_total(cb, term_weights=(0.0, 0.0, 1.0))
        assert abs(float(total.data) - report.l_oto) <= 1e-15
        # raw per-term values are still reported
        assert report.l_mto > 0 and report.l_mtm > 0

    def test_mix_to_mix_weight_one_over_m_is_the_normalised_loss(self):
        # weights divided by M, so that each row sums to 1, give the same
        # objective as the term weight 1/M
        cb = batch(8, 4, seed=5)
        _, total = ob.loss_total(cb, term_weights=(0.0, 1.0 / 4, 0.0))
        plan = cb.plan
        normed = ob.loss_mtm(
            cb.h_mix1, cb.z_mix2, plan.mixed_targets, plan.mixed_weights / 4, 0.2
        )
        np.testing.assert_allclose(plan.mixed_weights.sum(axis=1), 4.0)
        assert abs(float(total.data) - float(normed.data)) <= 1e-12

    def test_default_weights_total_is_plain_sum(self):
        cb = batch(5, 2, seed=10)
        report, _ = ob.loss_total(cb)
        assert report.l_total == report.l_mto + report.l_mtm + report.l_oto


class TestGradients:
    def test_momentum_branch_gets_zero_gradient(self):
        n, d = 4, 8
        rng = np.random.default_rng(11)
        plan = make_plan(n, 2)
        tape = ad.Tape()
        hs = [tape.var(rng.normal(size=(n, d))) for _ in range(2)]
        zs = [tape.var(rng.normal(size=(n, d))) for _ in range(3)]
        cb = ob.ContrastBatch(hs[0], hs[1], zs[0], zs[1], zs[2], plan)
        _, total = ob.loss_total(cb)
        tape.backward(total)
        for z in zs:
            np.testing.assert_array_equal(tape.grad(z), 0.0)
        for h in hs:
            assert np.any(tape.grad(h) != 0.0)

    def test_total_gradient_matches_finite_differences(self):
        n, d = 4, 8
        rng = np.random.default_rng(12)
        plan = make_plan(n, 2)
        z1, z2, zm = (rng.normal(size=(n, d)) for _ in range(3))

        def fn(hm, hv):
            cb = ob.ContrastBatch(hm, hv, z1, z2, zm, plan)
            return ob.loss_total(cb)[1]

        res = ad.check_gradients(
            fn, [rng.normal(size=(n, d)), rng.normal(size=(n, d))], step=1e-3
        )
        assert res.max_rel_err <= 1e-4

    def test_loss_total_does_not_mutate_inputs(self):
        cb = batch(4, 2, seed=13)
        snap = cb.z_view1.data.copy()
        ob.loss_total(cb)
        np.testing.assert_array_equal(cb.z_view1.data, snap)


class TestOriginPart:
    """``loss_total`` with an ``origin`` evaluated beforehand, on a tape of
    its own, is the one-tape objective split in two, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (0.5, 0.25, 2.0)])
    def test_split_equals_the_whole_bit_for_bit(self, dtype, weights):
        n, d = 6, 8
        rng = np.random.default_rng(14)
        plan = make_plan(n, 3)
        hm0, hv0, z1, z2, zm = (
            rng.normal(size=(n, d)).astype(dtype) for _ in range(5)
        )

        whole = ad.Tape()
        hm, hv = whole.var(hm0), whole.var(hv0)
        cb = ob.ContrastBatch(hm, hv, z1, z2, zm, plan)
        report, total = ob.loss_total(cb, weights)
        whole.backward(total)
        g_mix, g_view = whole.grad(hm), whole.grad(hv)

        first = ad.Tape()
        hv = first.var(hv0)
        origin = ob.origin_term(hv, z1, cb.temperature, weights[2])
        first.backward(origin[1])
        second = ad.Tape()
        hm = second.var(hm0)
        cb = ob.ContrastBatch(hm, hv0, z1, z2, zm, plan)
        split_report, split_total = ob.loss_total(cb, weights, origin=origin)
        second.backward(split_total)

        assert split_report == report
        assert split_total.data.tobytes() == total.data.tobytes()
        for got, want in ((second.grad(hm), g_mix), (first.grad(hv), g_view)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_origin_values_are_constants(self):
        cb = batch(4, 2, seed=15)
        tape = ad.Tape()
        hv = tape.var(cb.h_view2.data)
        oto, weighted = ob.origin_term(hv, cb.z_view1, cb.temperature, 1.0)
        report, total = ob.loss_total(cb, origin=(oto.data, weighted.data))
        assert total.tape is None  # cb holds no taped tensor
        assert report == ob.loss_total(cb)[0]

    @pytest.mark.parametrize("which", ["h_view2", "z_view1"])
    def test_non_finite_embedding_is_named(self, which):
        cb = batch(4, 2, seed=16)
        args = {"h_view2": cb.h_view2.data.copy(), "z_view1": cb.z_view1.data.copy()}
        args[which][1, 2] = np.nan
        with pytest.raises(ValueError, match=f"{which} contains non-finite"):
            ob.origin_term(args["h_view2"], args["z_view1"], 0.2, 1.0)

    def test_row_counts_must_agree(self):
        cb = batch(4, 2, seed=17)
        with pytest.raises(ValueError, match=r"z_view1 must be \[N, D\] with N=4"):
            ob.origin_term(cb.h_view2, cb.z_view1.data[:3], 0.2, 1.0)


class TestValidation:
    def test_wrong_row_count_rejected(self):
        plan = make_plan(4, 2)
        good = unit_rows(4, 8, 0)
        bad = unit_rows(5, 8, 0)
        with pytest.raises(ValueError, match="h_view2"):
            ob.ContrastBatch(good, bad, good, good, good, plan)

    def test_non_finite_rejected(self):
        plan = make_plan(4, 2)
        good = unit_rows(4, 8, 0)
        bad = good.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            ob.ContrastBatch(good, good, bad, good, good, plan)

    def test_nonpositive_temperature_rejected(self):
        plan = make_plan(4, 2)
        good = unit_rows(4, 8, 0)
        with pytest.raises(ValueError, match="temperature"):
            ob.ContrastBatch(good, good, good, good, good, plan, temperature=0.0)

    def test_zero_row_named_in_error(self):
        a = np.ones((3, 4))
        b = np.ones((3, 4))
        b[2] = 0.0
        with pytest.raises(ValueError, match="2"):
            ob.cosine_sim_matrix(a, b)
