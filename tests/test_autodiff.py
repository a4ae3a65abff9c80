import math
import tracemalloc
import weakref

import numpy as np
import pytest

from scipy.special import erf

from patchmix import autodiff as ad


def fd_ok(fn, *arrays, step=1e-4, tol=1e-6):
    res = ad.check_gradients(fn, list(arrays), step=step)
    assert res.checked > 0
    assert res.max_rel_err <= tol, f"max rel err {res.max_rel_err}"
    return res


class TestTapeBasics:
    def test_backward_requires_scalar(self):
        tape = ad.Tape()
        x = tape.var(np.ones((2, 2)))
        with pytest.raises(ValueError):
            tape.backward(ad.scale(x, 2.0))

    def test_grad_defaults_to_zeros(self):
        tape = ad.Tape()
        x = tape.var(np.ones(3))
        y = tape.var(np.ones(3))
        tape.backward(ad.asum(ad.mul(x, x)))
        np.testing.assert_array_equal(tape.grad(y), np.zeros(3))

    def test_gradient_accumulates_over_reuse(self):
        tape = ad.Tape()
        x = tape.var(np.array([3.0]))
        tape.backward(ad.asum(ad.add(x, x)))
        np.testing.assert_array_equal(tape.grad(x), [2.0])

    @pytest.mark.parametrize(
        "op", [ad.add, lambda x, y: ad.concat([x, y])], ids=["add", "concat"]
    )
    def test_operands_from_two_tapes_rejected(self, op):
        x, y = ad.Tape().var(np.ones(2)), ad.Tape().var(np.ones(2))
        with pytest.raises(ValueError, match="different tapes"):
            op(x, y)

    def test_second_backward_rejected(self):
        tape = ad.Tape()
        x = tape.var(np.array([3.0]))
        loss = ad.asum(ad.mul(x, x))
        tape.backward(loss)
        with pytest.raises(ValueError, match="consumed"):
            tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(x), [6.0])

    def test_consumed_tape_records_nothing(self):
        tape = ad.Tape()
        x = tape.var(np.array([3.0]))
        tape.backward(ad.asum(x))
        with pytest.raises(ValueError, match="consumed"):
            ad.mul(x, 2.0)
        with pytest.raises(ValueError, match="consumed"):
            tape.var(np.ones(1))

    def test_grad_of_other_tensor_is_zero_after_backward(self):
        tape = ad.Tape()
        tape.backward(ad.asum(ad.mul(tape.var(np.ones(2)), 2.0)))
        # the leaf above is freed with the graph; its id may come back
        others = [ad.Tensor(np.ones(2)) for _ in range(64)]
        for t in others:
            np.testing.assert_array_equal(tape.grad(t), np.zeros(2))

    def test_discarded_tape_is_consumed(self):
        tape = ad.Tape()
        x = tape.var(np.array([3.0]))
        loss = ad.asum(ad.mul(x, x))
        tape.discard()
        with pytest.raises(ValueError, match="consumed"):
            tape.backward(loss)
        with pytest.raises(ValueError, match="consumed"):
            ad.mul(x, 2.0)
        with pytest.raises(ValueError, match="consumed"):
            tape.var(np.ones(1))
        np.testing.assert_array_equal(tape.grad(x), [0.0])


class TestElementwise:
    def test_add_mul_div_grads(self):
        rng = np.random.default_rng(0)
        a, b = rng.random((3, 4)) + 0.5, rng.random((3, 4)) + 0.5
        fd_ok(lambda x, y: ad.asum(ad.div(ad.mul(x, y), ad.add(x, y))), a, b)

    def test_broadcasting_unbroadcasts_adjoints(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((3, 4)), rng.random((4,))
        fd_ok(lambda x, y: ad.asum(ad.mul(x, y)), a, b)
        # row vector against column vector
        c, d = rng.random((3, 1)), rng.random((1, 4))
        fd_ok(lambda x, y: ad.asum(ad.add(x, y)), c, d)

    def test_sqrt(self):
        rng = np.random.default_rng(2)
        a = rng.random((2, 5)) + 0.5
        fd_ok(lambda x: ad.asum(ad.sqrt(x)), a)

    def test_gelu_matches_erf_form(self):
        from scipy.special import erf

        x = np.linspace(-3, 3, 13)
        got = ad.gelu(ad.Tensor(x)).data
        expect = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)
        fd_ok(lambda t: ad.asum(ad.gelu(t)), x + 0.001)

    def test_relu_kink_excluded_not_failed(self):
        x = np.array([-1.0, 0.0, 1.0])
        res = ad.check_gradients(lambda t: ad.asum(ad.relu(t)), x, step=1e-3)
        assert res.max_rel_err <= 1e-8
        assert any(coord == (0, (1,)) for coord in res.nonsmooth)


class TestMatmul:
    def test_2d(self):
        rng = np.random.default_rng(3)
        fd_ok(
            lambda a, b: ad.asum(ad.matmul(a, b)),
            rng.random((3, 4)),
            rng.random((4, 2)),
        )

    def test_batched_broadcast(self):
        rng = np.random.default_rng(4)
        fd_ok(
            lambda a, b: ad.asum(ad.matmul(a, b)),
            rng.random((5, 3, 4)),
            rng.random((4, 2)),
        )
        fd_ok(
            lambda a, b: ad.asum(ad.matmul(a, b)),
            rng.random((2, 3, 4)),
            rng.random((2, 4, 3)),
        )


class TestReductionsAndShape:
    def test_sum_mean_axes(self):
        rng = np.random.default_rng(5)
        a = rng.random((3, 4, 2))
        fd_ok(lambda x: ad.asum(ad.mean(x, axis=1)), a)
        fd_ok(lambda x: ad.mean(ad.asum(x, axis=(0, 2))), a)
        fd_ok(lambda x: ad.asum(ad.mean(x, axis=0, keepdims=True)), a)

    def test_transpose_reshape_concat(self):
        rng = np.random.default_rng(6)
        a, b = rng.random((2, 3)), rng.random((2, 3))
        fd_ok(
            lambda x, y: ad.asum(
                ad.mul(ad.reshape(ad.transpose(x), (6,)), ad.reshape(y, (6,)))
            ),
            a,
            b,
        )
        fd_ok(lambda x, y: ad.asum(ad.concat([x, y], axis=0)), a, b)

    def test_broadcast_to(self):
        a = np.random.default_rng(7).random((1, 4))
        fd_ok(lambda x: ad.asum(ad.broadcast_to(x, (3, 4))), a)


class TestIndexing:
    def test_take_repeated_rows_accumulate(self):
        tape = ad.Tape()
        x = tape.var(np.arange(6.0).reshape(3, 2))
        y = ad.take(x, np.array([0, 0, 2]))
        tape.backward(ad.asum(y))
        np.testing.assert_array_equal(
            tape.grad(x), [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]
        )

    def test_gather_rows(self):
        rng = np.random.default_rng(8)
        a = rng.random((4, 6))
        idx = np.array([[0, 5, 5], [1, 2, 3], [4, 4, 4], [0, 1, 2]])
        tape = ad.Tape()
        x = tape.var(a)
        y = ad.gather(x, idx)
        np.testing.assert_array_equal(
            y.data, a[np.arange(4)[:, None], idx]
        )
        tape.backward(ad.asum(y))
        expect = np.zeros_like(a)
        np.add.at(expect, (np.arange(4)[:, None], idx), 1.0)
        np.testing.assert_array_equal(tape.grad(x), expect)


class TestNormalization:
    def test_softmax_log_softmax(self):
        rng = np.random.default_rng(9)
        a = rng.random((3, 5)) * 4
        rows = ad.softmax(ad.Tensor(a)).data
        np.testing.assert_allclose(rows.sum(axis=1), np.ones(3), atol=1e-12)
        w = rng.random((3, 5))
        fd_ok(lambda x: ad.asum(ad.mul(ad.softmax(x), w)), a)
        fd_ok(lambda x: ad.asum(ad.mul(ad.log_softmax(x), w)), a)

    def test_softmax_shift_invariance(self):
        a = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(
            ad.softmax(ad.Tensor(a)).data,
            ad.softmax(ad.Tensor(a + 500.0)).data,
            atol=1e-12,
        )

    def test_layer_norm(self):
        rng = np.random.default_rng(10)
        a = rng.random((4, 6))
        g, b = rng.random(6) + 0.5, rng.random(6)
        out = ad.layer_norm(ad.Tensor(a), ad.Tensor(g), ad.Tensor(b)).data
        back = (out - b) / g
        np.testing.assert_allclose(back.mean(axis=1), 0.0, atol=1e-12)
        w = rng.random((4, 6))
        fd_ok(
            lambda x, gg, bb: ad.asum(ad.mul(ad.layer_norm(x, gg, bb), w)),
            a,
            g,
            b,
            tol=1e-5,
        )

    def test_l2_normalize(self):
        rng = np.random.default_rng(11)
        a = rng.random((3, 4)) + 0.2
        out = ad.l2_normalize(ad.Tensor(a)).data
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.ones(3), atol=1e-12
        )
        w = rng.random((3, 4))
        fd_ok(lambda x: ad.asum(ad.mul(ad.l2_normalize(x), w)), a)

    def test_l2_normalize_zero_row_names_index(self):
        a = np.ones((3, 4))
        a[1] = 0.0
        with pytest.raises(ValueError, match="1"):
            ad.l2_normalize(ad.Tensor(a))


class TestStopGradient:
    def test_blocks_gradient(self):
        tape = ad.Tape()
        x = tape.var(np.array([2.0, 3.0]))
        y = ad.mul(x, ad.stop_gradient(x))  # d/dx (x * const(x)) = const(x)
        tape.backward(ad.asum(y))
        np.testing.assert_array_equal(tape.grad(x), [2.0, 3.0])

    def test_shares_data_bitwise(self):
        x = ad.Tensor(np.array([1.0, 2.0]))
        assert ad.stop_gradient(x).data is x.data


class TestCheckGradients:
    def test_known_function(self):
        rng = np.random.default_rng(12)
        res = fd_ok(
            lambda a, b: ad.mean(ad.gelu(ad.matmul(a, b))),
            rng.random((3, 4)),
            rng.random((4, 3)),
        )
        assert res.nonsmooth == [] and res.nonfinite == []

    def test_single_array_accepted(self):
        res = ad.check_gradients(
            lambda x: ad.asum(ad.mul(x, x)), np.array([1.0, 2.0])
        )
        assert res.checked == 2

    def test_non_scalar_output_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.check_gradients(lambda x: x, np.ones(3))


# ------------------------------------------------------------ primitive sweep
# A seeded finite-difference sweep over every differentiable primitive on
# random shapes. Each case returns a function of Tensors and its points; the
# sweep checks sum(f(x) * w) for a random weight w of the output's shape.


def _shape(rng, ndim, lo=1, hi=4):
    return tuple(int(v) for v in rng.integers(lo, hi + 1, size=ndim))


def _away_from_zero(rng, shape):
    return rng.uniform(0.2, 1.0, shape) * rng.choice([-1.0, 1.0], shape)


def _sweep_cases():
    def matmul_nd_2d(rng):
        k = int(rng.integers(1, 5))
        return ad.matmul, [rng.random(_shape(rng, 2) + (k,)), rng.random((k, 3))]

    def matmul_2d_2d(rng):
        k = int(rng.integers(1, 5))
        return ad.matmul, [rng.random((3, k)), rng.random((k, 2))]

    def matmul_batched_broadcast(rng):
        b, k = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        return ad.matmul, [rng.random((2, 1, 3, k)), rng.random((b, k, 2))]

    def linear(a_ndim, b_shape):
        def case(rng):
            k = int(rng.integers(1, 5))
            a = rng.random(_shape(rng, a_ndim - 1) + (k,))
            return ad.linear, [a, rng.random((k, 3)), rng.random(b_shape)]

        return case

    def binary(op, positive_b=False):
        def case(rng):
            b_shape = [(2, 4), (4,), (1, 4), (2, 1)][int(rng.integers(0, 4))]
            b = rng.random(b_shape) + (0.5 if positive_b else 0.0)
            return op, [rng.random((3, 1, 4)), b]

        return case

    def with_scalar(op):
        return lambda rng: (lambda x: op(x, 0.75), [rng.random((2, 3)) + 0.5])

    def unary(op, positive=False):
        def case(rng):
            shape = _shape(rng, 3)
            if positive:
                return op, [rng.random(shape) + 0.5]
            return op, [_away_from_zero(rng, shape)]

        return case

    def along_axis(op):
        def case(rng):
            shape = _shape(rng, 3, 2, 4)
            axis = int(rng.integers(-3, 3))
            return (lambda x: op(x, axis=axis)), [rng.random(shape) * 3]

        return case

    def layer_norm(rng):
        d = int(rng.integers(2, 5))
        return ad.layer_norm, [
            rng.random((2, 3, d)), rng.random(d) + 0.5, rng.random(d)
        ]

    def norm_linear(rng):
        d = int(rng.integers(2, 5))
        return ad.norm_linear, [
            rng.random((2, 3, d)), rng.random(d) + 0.5, rng.random(d),
            rng.random((d, 3)), rng.random(3),
        ]

    def reduction(op):
        def case(rng):
            axis = [None, 1, (0, 2), -1][int(rng.integers(0, 4))]
            keepdims = bool(rng.integers(0, 2))
            return (lambda x: op(x, axis=axis, keepdims=keepdims)), [
                rng.random(_shape(rng, 3, 2, 3))
            ]

        return case

    def transpose(rng):
        axes = tuple(int(a) for a in rng.permutation(3))
        return (lambda x: ad.transpose(x, axes)), [rng.random(_shape(rng, 3))]

    def reshape(rng):
        return (lambda x: ad.reshape(x, (-1, 2))), [rng.random((3, 2, 2))]

    def concat(rng):
        parts = [rng.random((2, int(rng.integers(1, 4)), 3)) for _ in range(3)]
        return (lambda *ts: ad.concat(ts, axis=1)), parts

    def broadcast_to(rng):
        src = [(1, 4), (4,), (3, 1)][int(rng.integers(0, 3))]
        return (lambda x: ad.broadcast_to(x, (2, 3, 4))), [rng.random(src)]

    def gather(rng):
        n, c = 4, 5
        idx = rng.integers(0, c, size=(n, 6))  # six draws from five: repeats
        idx[:, 1] = idx[:, 0]
        return (lambda x: ad.gather(x, idx)), [rng.random((n, c))]

    def l2_normalize(rng):
        axis = int(rng.integers(-2, 2))
        return (lambda x: ad.l2_normalize(x, axis=axis)), [rng.random((3, 4)) + 0.1]

    def take(key):
        return lambda rng: ((lambda x: ad.take(x, key)), [rng.random((4, 3, 5))])

    return {
        "matmul": [matmul_nd_2d, matmul_2d_2d, matmul_batched_broadcast],
        "linear": [linear(2, (3,)), linear(3, (3,)), linear(4, (1, 1, 3))],
        "add": [binary(ad.add), with_scalar(ad.add)],
        "sub": [binary(ad.sub), with_scalar(lambda x, s: ad.sub(s, x))],
        "mul": [binary(ad.mul), with_scalar(ad.mul)],
        "div": [
            binary(ad.div, positive_b=True),
            with_scalar(lambda x, s: ad.div(s, x)),
        ],
        "neg": [unary(ad.neg)],
        "scale": [unary(lambda x: ad.scale(x, -1.5))],
        "sqrt": [unary(ad.sqrt, positive=True)],
        "relu": [unary(ad.relu)],
        "gelu": [unary(ad.gelu)],
        "softmax": [along_axis(ad.softmax)],
        "log_softmax": [along_axis(ad.log_softmax)],
        "layer_norm": [layer_norm],
        "norm_linear": [norm_linear],
        "mean": [reduction(ad.mean)],
        "asum": [reduction(ad.asum)],
        "transpose": [transpose],
        "reshape": [reshape],
        "concat": [concat],
        "broadcast_to": [broadcast_to],
        "gather": [gather],
        "l2_normalize": [l2_normalize],
        "take": [take(key) for key in TAKE_KEYS],
    }


# every key kind of ``take``: basic keys (ints, slices incl. negative steps,
# Ellipsis, None) and index arrays, with repeats
TAKE_KEYS = [
    1,
    -1,
    np.int64(2),
    np.s_[::-2],
    np.s_[3:0:-1, 1],
    np.s_[..., 0],
    np.s_[None, 1:, ::-1],
    np.s_[1, ..., None, 2:],
    np.array([0, 2, 0, 0]),
    (np.array([0, 0, 3]), slice(None), np.array([4, 4, 1])),
    np.s_[:, np.array([2, 2, 0])],
    True,
]
SWEEP = _sweep_cases()
# layer norm's curvature limits the central difference, as in TestNormalization
SWEEP_TOL = {"layer_norm": 1e-5, "norm_linear": 1e-5}
NOT_PRIMITIVES = {
    "Tensor", "Tape", "GradCheckResult", "stop_gradient", "check_gradients"
}


def test_sweep_covers_every_primitive():
    assert set(SWEEP) == set(ad.__all__) - NOT_PRIMITIVES | {"take"}


@pytest.mark.parametrize(
    "name,index",
    [(name, i) for name, cases in SWEEP.items() for i in range(len(cases))],
)
def test_gradient_sweep(name, index):
    for seed in range(4):
        rng = np.random.default_rng([seed, index, len(name)])
        fn, points = SWEEP[name][index](rng)
        w = rng.standard_normal(fn(*[ad.Tensor(p) for p in points]).shape)
        res = ad.check_gradients(
            lambda *ts: ad.asum(ad.mul(fn(*ts), w)), points
        )
        assert res.checked > 0 and res.nonfinite == []
        tol = SWEEP_TOL.get(name, 1e-6)
        assert res.max_rel_err <= tol, (name, index, seed, res.max_rel_err)


class TestTakeKeys:
    @pytest.mark.parametrize("key", TAKE_KEYS, ids=repr)
    def test_gradient_equals_scatter_add(self, key):
        rng = np.random.default_rng(13)
        a = rng.random((4, 3, 5))
        w = rng.standard_normal(a[key].shape)
        tape = ad.Tape()
        x = tape.var(a)
        tape.backward(ad.asum(ad.mul(ad.take(x, key), w)))
        expect = np.zeros_like(a)
        np.add.at(expect, key, w)
        np.testing.assert_array_equal(tape.grad(x), expect)

    @pytest.mark.parametrize(
        "key",
        [0, -2, np.int64(1), slice(None), np.s_[::-1], Ellipsis, None,
         np.s_[None, ..., 1:3]],
        ids=repr,
    )
    def test_basic_keys_are_assigned(self, key):
        assert ad._is_basic_key(key)

    @pytest.mark.parametrize(
        "key",
        [True, False, np.True_, np.s_[:, True], np.array([0, 0]),
         np.array([True, False, True, False]), [0, 1]],
        ids=repr,
    )
    def test_bool_and_array_keys_scatter_add(self, key):
        assert not ad._is_basic_key(key)


class TestMatmulWeightGradient:
    @pytest.mark.parametrize("a_shape", [(6, 4), (2, 5, 4), (2, 3, 5, 4)])
    def test_one_gemm_matches_batched_sum(self, a_shape):
        rng = np.random.default_rng(14)
        a, b = rng.standard_normal(a_shape), rng.standard_normal((4, 3))
        g = rng.standard_normal(a_shape[:-1] + (3,))
        tape = ad.Tape()
        x, y = tape.var(a), tape.var(b)
        tape.backward(ad.asum(ad.mul(ad.matmul(x, y), g)))
        batched = (np.swapaxes(a, -1, -2) @ g).reshape(-1, 4, 3).sum(axis=0)
        np.testing.assert_allclose(tape.grad(y), batched, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            tape.grad(x), g @ b.T, rtol=1e-12, atol=1e-12
        )

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(15)
        tape = ad.Tape()
        x = tape.var(rng.random((2, 3, 4)).astype(np.float32))
        y = tape.var(rng.random((4, 2)).astype(np.float32))
        tape.backward(ad.asum(ad.gelu(ad.matmul(x, y))))
        assert tape.grad(x).dtype == np.float32
        assert tape.grad(y).dtype == np.float32


class TestLinear:
    """``linear`` is ``add(matmul(a, w), b)`` as one node, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [((6, 4), (3,)), ((2, 5, 4), (3,)), ((2, 3, 5, 4), (5, 1))],
    )
    def test_equals_add_of_matmul(self, a_shape, b_shape, dtype):
        rng = np.random.default_rng(16)
        arrays = [
            rng.standard_normal(shape).astype(dtype)
            for shape in (a_shape, (4, 3), b_shape)
        ]
        g = rng.standard_normal(a_shape[:-1] + (3,)).astype(dtype)

        def run(fn):
            tape = ad.Tape()
            ts = [tape.var(x) for x in arrays]
            out = fn(*ts)
            tape.backward(ad.asum(ad.mul(out, g)))
            return [out.data] + [tape.grad(t) for t in ts]

        fused = run(ad.linear)
        composed = run(lambda a, w, b: ad.add(ad.matmul(a, w), b))
        for got, want in zip(fused, composed):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)

    def test_constant_input_gets_no_delta(self):
        targets = []

        class RecordingTape(ad.Tape):
            def _accumulate(self, key, delta):
                targets.append(key)
                super()._accumulate(key, delta)

        rng = np.random.default_rng(17)
        tape = RecordingTape()
        w, b = tape.var(rng.random((4, 3))), tape.var(rng.random(3))
        x = ad.Tensor(rng.random((2, 5, 4)))
        out = ad.linear(x, w, b)
        tape.backward(ad.asum(out))
        # the keys of every tensor of this tape below the loss; x has none
        taped = {w.key, b.key, out.key}
        assert all(key in taped for key in targets)
        assert {w.key, b.key} <= set(targets)

    def test_weight_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D weight"):
            ad.linear(np.ones((2, 3)), np.ones((2, 3, 4)), np.ones(4))
        with pytest.raises(ValueError):
            ad.linear(np.ones((2, 3)), np.ones((4, 2)), np.ones(2))

    def test_bias_may_not_promote(self):
        a = np.ones((2, 3), dtype=np.float32)
        w = np.ones((3, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="promote"):
            ad.linear(a, w, np.ones(2))


class TestScalarOperands:
    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    def test_python_scalars_keep_float32(self, op):
        x = ad.Tensor(np.ones(3, dtype=np.float32))
        assert op(x, 2.0).dtype == np.float32
        assert op(3, x).dtype == np.float32


class TestGraphByKey:
    def test_unread_activation_is_freed_when_dropped(self):
        rng = np.random.default_rng(18)
        tape = ad.Tape()
        x, y = tape.var(rng.random((3, 4))), tape.var(rng.random((3, 4)))
        h = ad.add(x, y)  # a residual sum that only a shape-only map follows
        ref = weakref.ref(h.data)
        out = ad.scale(h, 2.0)
        del h
        assert ref() is None
        tape.backward(ad.asum(out))
        np.testing.assert_array_equal(tape.grad(x), np.full((3, 4), 2.0))
        np.testing.assert_array_equal(tape.grad(y), np.full((3, 4), 2.0))

    @pytest.mark.parametrize(
        "op",
        [
            lambda h: ad.add(h, 1.0),
            lambda h: ad.sub(1.0, h),
            lambda h: ad.mean(h, axis=0),
            lambda h: ad.asum(h, axis=1, keepdims=True),
            lambda h: ad.broadcast_to(h, (2, 3, 4)),
            lambda h: ad.take(h, np.array([2, 0, 2])),
            lambda h: ad.gather(h, np.array([[0, 3], [1, 1], [2, 0]])),
        ],
        ids=["add", "sub", "mean", "asum", "broadcast_to", "take", "gather"],
    )
    def test_shape_only_maps_keep_no_input(self, op):
        tape = ad.Tape()
        x = tape.var(np.arange(12.0).reshape(3, 4))
        h = ad.scale(x, 1.5)
        ref = weakref.ref(h.data)
        out = op(h)
        del h
        assert ref() is None
        tape.backward(ad.asum(out))
        assert tape.grad(x).shape == (3, 4)

    def test_shared_first_contribution_is_never_written(self):
        rng = np.random.default_rng(19)
        a0, b0, c, d, w = (rng.standard_normal((3, 4)) for _ in range(5))
        tape = ad.Tape()
        a, b = tape.var(a0), tape.var(b0)
        p = ad.mul(a, d)  # a's third contribution
        q = ad.mul(a, c)  # a's second contribution
        s = ad.add(a, b)  # hands one gradient to a and b: their first
        tape.backward(ad.asum(ad.mul(ad.add(ad.add(p, q), s), w)))
        g = np.ones((3, 4)) * w
        np.testing.assert_array_equal(tape.grad(b), g)
        np.testing.assert_array_equal(tape.grad(a), (g + g * c) + g * d)

    def test_slices_scatter_into_one_gradient(self):
        rng = np.random.default_rng(20)
        a0 = rng.standard_normal((3, 2, 5))
        ws = [rng.standard_normal((2, 5)) for _ in range(3)]
        tape = ad.Tape()
        x = tape.var(a0)
        parts = [ad.mul(ad.take(x, i), w) for i, w in enumerate(ws)]
        full = ad.mul(x, 2.0)  # a dense contribution after the slices
        tape.backward(ad.add(ad.asum(ad.concat(parts)), ad.asum(full)))
        dense = []
        for i, w in enumerate(ws):
            z = np.zeros_like(a0)
            z[i] = w
            dense.append(z)
        expect = np.full_like(a0, 2.0) + dense[2] + dense[1] + dense[0]
        np.testing.assert_array_equal(tape.grad(x), expect)

    def test_keys_restart_on_every_tape(self):
        first, second = ad.Tape(), ad.Tape()
        x = first.var(np.ones(2))
        y = second.var(np.ones(2))
        assert x.key == y.key
        first.backward(ad.asum(ad.scale(x, 3.0)))
        np.testing.assert_array_equal(first.grad(x), [3.0, 3.0])
        np.testing.assert_array_equal(first.grad(y), np.zeros(2))


class TestVarInto:
    """A leaf of ``var_into`` adds its gradient into the caller's array."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "contribution",
        [
            lambda x, w: ad.mul(x, w),  # an array
            lambda x, w: ad.mul(ad.take(x, (slice(1, 3),)), w[1:3]),  # a _Slice
            lambda x, w: ad.mul(ad.take(x, (1, slice(None, 4))), w[1, :4]),
        ],
        ids=["array", "slice", "row_slice"],
    )
    def test_in_place_add_equals_prior_plus_grad(self, contribution, dtype):
        rng = np.random.default_rng(21)
        x0, w, prior = (rng.standard_normal((4, 5)).astype(dtype) for _ in range(3))
        plain = ad.Tape()
        x = plain.var(x0)
        plain.backward(ad.asum(contribution(x, w)))
        expect = prior + plain.grad(x)
        into = ad.Tape()
        out = prior.copy()
        x = into.var_into(x0, out)
        into.backward(ad.asum(contribution(x, w)))
        assert out.dtype == expect.dtype and out.tobytes() == expect.tobytes()

    def test_contributions_are_added_in_their_order(self):
        rng = np.random.default_rng(22)
        x0, c, d, prior = (rng.standard_normal(6) for _ in range(4))
        tape = ad.Tape()
        out = prior.copy()
        x = tape.var_into(x0, out)
        # the sweep visits the later use first
        tape.backward(ad.asum(ad.add(ad.mul(x, c), ad.mul(x, d))))
        np.testing.assert_array_equal(out, (prior + d) + c)

    def test_tape_keeps_no_gradient_for_the_leaf(self):
        tape = ad.Tape()
        x = tape.var_into(np.ones(3), np.zeros(3))
        y = tape.var(np.ones(3))
        tape.backward(ad.asum(ad.mul(x, y)))
        assert x.key not in tape._grads
        with pytest.raises(ValueError, match="var_into"):
            tape.grad(x)
        np.testing.assert_array_equal(tape.grad(y), np.ones(3))

    def test_array_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            ad.Tape().var_into(np.ones((2, 3)), np.zeros(6))

    def test_consumed_tape_rejects_a_leaf(self):
        tape = ad.Tape()
        tape.discard()
        with pytest.raises(ValueError, match="consumed"):
            tape.var_into(np.ones(2), np.zeros(2))


# The expressions gelu, softmax and layer_norm computed before they built
# their temporaries in place; the rewrite performs the same operations in
# the same order (or swaps the operands of a + or a *), so it must agree
# with these bit for bit. Each returns the value and the input gradients
# for an output gradient g.


def reference_gelu(x, g):
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    return x * cdf, [g * (cdf + x * pdf)]


def reference_softmax(x, g, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    return s, [s * (g - (g * s).sum(axis=axis, keepdims=True))]


def reference_layer_norm(x, gain, bias, g, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    dxhat = g * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    lead = tuple(range(x.ndim - 1))
    return xhat * gain + bias, [
        inv * (dxhat - m1 - xhat * m2),
        (g * xhat).sum(axis=lead),
        g.sum(axis=lead),
    ]


class TestInPlacePrimitives:
    CASES = {
        "gelu": (ad.gelu, reference_gelu, 1),
        "softmax_last": (
            lambda x: ad.softmax(x, axis=-1),
            lambda x, g: reference_softmax(x, g, -1), 1,
        ),
        "softmax_first": (
            lambda x: ad.softmax(x, axis=0),
            lambda x, g: reference_softmax(x, g, 0), 1,
        ),
        "layer_norm": (ad.layer_norm, reference_layer_norm, 3),
    }

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(7, 33), (2, 5, 33), (2, 3, 4, 33)])
    @pytest.mark.parametrize("name", list(CASES))
    def test_values_and_gradients_equal_the_reference(self, name, shape, dtype):
        op, reference, arity = self.CASES[name]
        rng = np.random.default_rng([len(shape), arity])
        points = [(rng.standard_normal(shape) * 3).astype(dtype)]
        points += [rng.standard_normal(shape[-1]).astype(dtype) for _ in range(arity - 1)]
        g = rng.standard_normal(shape).astype(dtype)
        tape = ad.Tape()
        xs = [tape.var(p) for p in points]
        out = op(*xs)
        tape.backward(ad.asum(ad.mul(out, g)))  # hands op the gradient g
        value, grads = reference(*points, g)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.data, value)
        np.testing.assert_array_equal(op(*map(ad.Tensor, points)).data, value)
        for x, expect in zip(xs, grads):
            assert tape.grad(x).dtype == dtype
            np.testing.assert_array_equal(tape.grad(x), expect)

    def test_layer_norm_with_a_wider_gain_and_bias_computes_in_their_dtype(self):
        rng = np.random.default_rng(25)
        points = [rng.standard_normal((2, 5, 33)).astype(np.float32)]
        points += [rng.standard_normal(33), rng.standard_normal(33)]
        g = rng.standard_normal((2, 5, 33))
        tape = ad.Tape()
        xs = [tape.var(p) for p in points]
        out = ad.layer_norm(*xs)
        tape.backward(ad.asum(ad.mul(out, g)))
        value, grads = reference_layer_norm(*points, g)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out.data, value)
        for x, expect in zip(xs, grads):
            np.testing.assert_array_equal(tape.grad(x), expect)

    def test_taped_gelu_keeps_one_array_besides_its_output(self):
        tape = ad.Tape()
        x = tape.var(np.random.default_rng(21).standard_normal((64, 256)))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            h = ad.scale(x, 1.0)  # an input that only gelu reads afterwards
            y = ad.gelu(h)
            del h
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # the output and the derivative; the input and Phi(x) are freed
        assert 2 * x.data.nbytes <= held < 2.25 * x.data.nbytes, held
        tape.backward(ad.asum(y))

    def test_untaped_gelu_computes_no_derivative(self):
        x = ad.Tensor(np.random.default_rng(22).standard_normal((64, 256)))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            y = ad.gelu(x)
            held, peak = (m - start for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert y.tape is None
        # Phi(x) and the output at once; a derivative would be a third array
        assert peak < 2.25 * x.data.nbytes, peak
        assert x.data.nbytes <= held < 1.25 * x.data.nbytes, held

    @pytest.mark.parametrize(
        "make,key",
        [
            # a slice of a transposed view, as the encoder splits q, k and v
            (lambda x: ad.transpose(x, (2, 0, 1)), np.s_[1]),
            (lambda x: ad.transpose(x, (1, 2, 0)), np.s_[:, 1:, ::-1]),
            (lambda x: x, np.s_[1:]),
        ],
        ids=["transposed_int", "transposed_slices", "leaf"],
    )
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_slice_gradient_keeps_the_source_layout(self, make, key, order):
        a = np.asarray(np.random.default_rng(23).standard_normal((3, 4, 5)), order=order)
        tape = ad.Tape()
        x = tape.var(a)
        src = make(x)
        part = ad.take(src, key)
        w = np.random.default_rng(24).standard_normal(part.shape)
        tape.backward(ad.asum(ad.mul(part, w)))
        expect = np.zeros_like(src.data)
        expect[key] = w
        grad = tape.grad(x)
        # laid out as the leaf is, so undoing the transpose leaves no copy
        assert grad.flags.c_contiguous == (order == "C")
        assert grad.flags.f_contiguous == (order == "F")
        np.testing.assert_array_equal(make(ad.Tensor(grad)).data, expect)


class TestNormLinear:
    """``norm_linear`` is ``linear(layer_norm(a, gain, bias), w, b)`` bit for
    bit, but keeps the normalised input and not the projection's input."""

    @staticmethod
    def run(fn, points, g, taped=True):
        tape = ad.Tape() if taped else None
        ts = [tape.var(p) if taped else ad.Tensor(p) for p in points]
        out = fn(*ts)
        if not taped:
            assert out.tape is None
            return [out.data]
        tape.backward(ad.asum(ad.mul(out, g)))
        return [out.data] + [tape.grad(t) for t in ts]

    @staticmethod
    def composed(a, gain, bias, w, b, eps=1e-6):
        return ad.linear(ad.layer_norm(a, gain, bias, eps), w, b)

    @staticmethod
    def points(shape, dtypes):
        rng = np.random.default_rng([len(shape), 5])
        d = shape[-1]
        shapes = [shape, (d,), (d,), (d, 12), (12,)]
        return [
            (rng.standard_normal(s) * 3).astype(dt) for s, dt in zip(shapes, dtypes)
        ], rng.standard_normal(shape[:-1] + (12,))

    @pytest.mark.parametrize("taped", [True, False], ids=["taped", "untaped"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(7, 33), (2, 5, 33), (2, 3, 4, 33)])
    def test_value_and_gradients_equal_the_composition(self, shape, dtype, taped):
        points, g = self.points(shape, [dtype] * 5)
        g = g.astype(dtype)
        fused = self.run(ad.norm_linear, points, g, taped)
        composed = self.run(self.composed, points, g, taped)
        assert len(fused) == (6 if taped else 1)
        for got, want in zip(fused, composed):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)

    def test_a_wider_gain_and_bias_compute_what_the_composition_does(self):
        f32, f64 = np.float32, np.float64
        points, g = self.points((2, 5, 33), [f32, f64, f64, f32, f32])
        fused = self.run(ad.norm_linear, points, g)
        composed = self.run(self.composed, points, g)
        assert fused[0].dtype == np.float64
        for got, want in zip(fused, composed):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_rejects_what_the_composition_rejects(self):
        points, _ = self.points((2, 5, 33), [np.float32] * 4 + [np.float64])
        for fn in (ad.norm_linear, self.composed):
            with pytest.raises(ValueError, match="promote"):
                fn(*points)
            with pytest.raises(ValueError, match="2-D weight"):
                fn(*points[:3], np.ones((2, 33, 4)), np.ones(4))

    def test_taped_call_keeps_the_normalised_input_not_the_affine_output(self):
        rng = np.random.default_rng(26)
        tape = ad.Tape()
        x = tape.var(rng.standard_normal((64, 256)))
        gain, bias = tape.var(rng.standard_normal(256)), tape.var(rng.standard_normal(256))
        w, b = tape.var(rng.standard_normal((256, 256))), tape.var(rng.standard_normal(256))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            h = ad.scale(x, 1.0)  # an input that only norm_linear reads afterwards
            out = ad.norm_linear(h, gain, bias, w, b)
            del h
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # the output and the normalised input; the input and y are freed (the
        # composition also keeps y, a third array of this size)
        assert 2 * x.data.nbytes <= held < 2.25 * x.data.nbytes, held
        tape.backward(ad.asum(out))
