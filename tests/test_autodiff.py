import numpy as np
import pytest

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

    def test_operator_sugar(self):
        tape = ad.Tape()
        x = tape.var(np.array([2.0, 4.0]))
        y = (x * 3.0 - 1.0) / 2.0 + x
        np.testing.assert_allclose(y.data, [4.5, 9.5])
        tape.backward(ad.asum(y))
        np.testing.assert_allclose(tape.grad(x), [2.5, 2.5])


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

    def test_exp_log_sqrt(self):
        rng = np.random.default_rng(2)
        a = rng.random((2, 5)) + 0.5
        fd_ok(lambda x: ad.asum(ad.exp(x)), a)
        fd_ok(lambda x: ad.asum(ad.log(x)), a)
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
        "add": [binary(ad.add), with_scalar(ad.add)],
        "sub": [binary(ad.sub), with_scalar(lambda x, s: ad.sub(s, x))],
        "mul": [binary(ad.mul), with_scalar(ad.mul)],
        "div": [
            binary(ad.div, positive_b=True),
            with_scalar(lambda x, s: ad.div(s, x)),
        ],
        "neg": [unary(ad.neg)],
        "scale": [unary(lambda x: ad.scale(x, -1.5))],
        "exp": [unary(ad.exp)],
        "log": [unary(ad.log, positive=True)],
        "sqrt": [unary(ad.sqrt, positive=True)],
        "relu": [unary(ad.relu)],
        "gelu": [unary(ad.gelu)],
        "softmax": [along_axis(ad.softmax)],
        "log_softmax": [along_axis(ad.log_softmax)],
        "layer_norm": [layer_norm],
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
SWEEP_TOL = {"layer_norm": 1e-5}
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


class TestScalarOperands:
    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    def test_python_scalars_keep_float32(self, op):
        x = ad.Tensor(np.ones(3, dtype=np.float32))
        assert op(x, 2.0).dtype == np.float32
        assert op(3, x).dtype == np.float32
