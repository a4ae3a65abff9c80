"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` records every primitive applied to tensors attached to it, in
execution order. Each primitive computes its value and declares one edge
per input: the input and a map from the output's gradient to that input's
gradient. ``_node`` records only the edges whose input is on the tape, so
constants are never differentiated: tensors built without a tape (or
passed through ``stop_gradient``), arrays and Python scalars still take
part in the value but get no gradient computed for them.

The graph holds keys, not tensors. A tensor created on a tape gets an
integer ``key`` unique on that tape, and a node is ``(output key, [(input
key, gradient map), ...])``. An activation therefore lives only as long as
the caller holds its tensor or a gradient map reads it: each map closes
over exactly the arrays it needs (a shape-only map such as ``add``'s or
``reshape``'s keeps no array at all).

Because the recording is a topological order of the data flow,
``backward`` is a single reverse sweep that pops each node's output
gradient and pushes one contribution per kept edge onto its input, in the
order the edges were declared, accumulating additively at fan-out points.
Every leaf adds into an array: ``var_into(data, grad)`` attaches a leaf
whose contributions the sweep adds in place into the caller's ``grad``,
in the order they arrive, and ``var(data)`` is ``var_into`` with zeros
the tape makes. The first contribution to any other key is kept as given,
and may be shared with another key; the second makes a fresh sum that the
tape owns, and later ones are added into that sum in place. A basic-key
``take`` contributes a slice, which is scattered into the array it is
added to instead of being widened to a full array of zeros first. The
zeros a first slice is scattered into are laid out in the sliced array's
stride order, so the gradient of a slice of a transposed view (the
encoder's q/k/v split) transposes back to a contiguous array, which
``reshape`` passes on as a view.

The sweep consumes the graph: it pops the nodes off the tape, so every
gradient map and the arrays it holds are freed as soon as its node has
run, and the tape keeps only the arrays of its leaves. ``backward`` may
therefore be called once per tape, and a consumed tape records nothing
more. A graph that will never be differentiated (an aborted training
step) goes with its tape: the graph holds keys, so it forms no reference
cycle, and a tape that nothing references is freed at once.

``linear`` records a biased projection ``a @ w + b`` as a single node
that adds the bias in place, so a forward pass keeps one array per
projection instead of two. Its values and gradients are those of
``add(matmul(a, w), b)``, bit for bit. ``norm_linear`` records a pre-norm
projection ``linear(layer_norm(a, gain, bias), w, b)`` as the two nodes of
that composition, values and gradients bit for bit, but its weight's
gradient map rebuilds the projection's input ``y`` instead of keeping it.

``gelu``, ``layer_norm``, ``norm_linear`` and ``softmax`` build their
temporaries in place, forward and backward, under one rule: a primitive
writes only into arrays it made itself, and performs the operations of
the plain expression in its order, except that the operands of a ``+``
or ``*`` may swap (IEEE addition and multiplication are commutative bit
for bit). So values and gradients are those of the plain expressions,
bit for bit. What their gradient maps keep:

- ``gelu``: on a tape, only its derivative ``d = Phi(x) + x * phi(x)``,
  computed in the forward pass; the map is ``g * d``, one array. An
  untaped call computes no derivative.
- ``layer_norm``: the normalised input, the inverse deviations and the
  gain. Forward and backward each make two full-size arrays.
- ``norm_linear``: what ``layer_norm`` keeps, plus the bias and the
  weight; not ``y``, which the weight's gradient map rebuilds from the
  normalised input, the gain and the bias with the forward's operations
  (``xhat * gain``, then ``+= bias``), one full-size array made per
  backward visit. The normalisation's gain, bias and input gradients
  share the one ``g @ w.T`` that is ``y``'s gradient.
- ``softmax``: its output. Forward and backward each make one.

The float array operands of a primitive share one dtype, which it computes
in; a mismatch is a ``TypeError`` naming the primitive and both dtypes. A
Python scalar or a non-float array operand takes that dtype, so 32-bit
arrays (the trainer's default precision) stay 32-bit. A ``Tensor`` holds
floats only: other data is a ``TypeError``, not cast. Gradient checks run
in 64 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, count
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import erf as _erf

from .kvconfig import is_real

__all__ = [
    "Tensor",
    "Tape",
    "GradCheckResult",
    "matmul",
    "linear",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "scale",
    "sqrt",
    "relu",
    "gelu",
    "softmax",
    "log_softmax",
    "layer_norm",
    "norm_linear",
    "mean",
    "asum",
    "transpose",
    "reshape",
    "concat",
    "broadcast_to",
    "gather",
    "l2_normalize",
    "stop_gradient",
    "check_gradients",
]

# plain floats, so that float32 operands stay float32 (NEP 50)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

_CONSUMED = "this tape is consumed by backward; record on a new tape"


class Tensor:
    """A dense float array plus the tape (if any) that is recording it, and
    the key by which that tape's graph refers to it. Data of any other
    kind is a ``TypeError``: a tensor computes in the precision it is
    given, never in one chosen for it."""

    __slots__ = ("data", "tape", "key")

    def __init__(self, data, tape: "Tape | None" = None):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            raise TypeError(f"a tensor holds floats, got an array of {arr.dtype}")
        self.data = arr
        self.tape = tape
        self.key = None if tape is None else next(tape._keys)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # indexing is the one operator; the encoder slices tensors with it
    def __getitem__(self, key):
        return take(self, key)


class _Slice(NamedTuple):
    """A gradient that is zero outside ``[index]`` of an array of
    ``shape`` and ``dtype``, where it is ``values``. ``order`` lists the
    axes of the sliced array from the largest stride to the smallest."""

    shape: tuple[int, ...]
    dtype: np.dtype
    order: tuple[int, ...]
    index: object
    values: np.ndarray

    def dense(self) -> np.ndarray:
        """The full gradient, laid out in memory as the sliced array was, so
        that the gradient of a transposed view transposes back to a
        contiguous array."""
        z = np.zeros([self.shape[i] for i in self.order], self.dtype)
        z = z.transpose(np.argsort(self.order))
        z[self.index] = self.values
        return z


class Tape:
    """Execution-ordered record of primitives, replayed backwards for grads."""

    __slots__ = ("_nodes", "_grads", "_sums", "_keys")

    def __init__(self):
        # (output key, [(input key, vjp), ...]) per primitive, in execution
        # order; None once backward has consumed them
        self._nodes: list[tuple[int, list[tuple[int, Callable]]]] | None = []
        self._grads: dict[int, np.ndarray] = {}  # contributions kept as given
        self._sums: dict[int, np.ndarray] = {}  # arrays the sweep adds into
        self._keys = count()

    def var(self, data) -> Tensor:
        """Attach a leaf variable to this tape: ``var_into`` with zeros the
        tape makes, laid out as ``data``, which ``grad`` returns."""
        data = np.asarray(data)
        return self.var_into(data, np.zeros_like(data))

    def var_into(self, data, grad: np.ndarray) -> Tensor:
        """Attach a leaf variable whose gradient is added into ``grad``.

        ``backward`` adds each contribution to the leaf in place into
        ``grad``, in the order they arrive, so ``grad`` ends as its prior
        value plus the leaf's gradient; ``grad(t)`` returns this array.
        ``grad`` must have the leaf's shape and dtype.
        """
        if self._nodes is None:
            raise ValueError(_CONSUMED)
        t = Tensor(data, self)
        if (grad.shape, grad.dtype) != (t.data.shape, t.data.dtype):
            raise ValueError(
                f"gradient array of shape {grad.shape} and {grad.dtype} does "
                f"not fit a leaf of shape {t.data.shape} and {t.data.dtype}"
            )
        self._sums[t.key] = grad
        return t

    def _accumulate(self, key: int, delta):
        """Add one contribution (an array or a ``_Slice``) to a gradient.

        A leaf's array, or a sum the tape made, is written in place; any
        other first contribution is kept as given, and may be shared with
        another key.
        """
        into = self._sums.get(key)
        if into is not None:
            if isinstance(delta, _Slice):
                into[delta.index] += delta.values
            else:
                into += delta
            return
        made = isinstance(delta, _Slice)
        if made:
            delta = delta.dense()
        cur = self._grads.pop(key, None)
        if cur is not None:
            delta, made = cur + delta, True
        if made and type(delta) is np.ndarray:  # 0-d operands sum to a scalar
            self._sums[key] = delta
        else:
            self._grads[key] = delta

    def backward(self, loss: Tensor):
        """Propagate d(loss)/d(tensor) to every tensor recorded on this tape.

        ``loss`` must be scalar. The sweep consumes the recorded graph,
        freeing each node (its keys and gradient maps) once it has run, so
        it may be called once per tape; gradients of leaves are then
        available through ``grad``. The tape writes only into the leaves'
        arrays and into the sums it made (of two or more contributions, and
        the zeros a slice is scattered into).
        """
        if self._nodes is None:
            raise ValueError(_CONSUMED)
        if not isinstance(loss, Tensor) or loss.tape is not self:
            raise ValueError("loss is not a tensor recorded on this tape")
        if loss.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        nodes, self._nodes = self._nodes, None
        seed = np.ones_like(loss.data)
        if loss.key in self._sums:  # a leaf
            self._sums[loss.key] += seed
        else:
            self._grads[loss.key] = seed
        while nodes:
            out, edges = nodes.pop()
            g = self._grads.pop(out, None)
            if g is None:
                g = self._sums.pop(out, None)
                if g is None:
                    continue  # not an ancestor of the loss
            for key, vjp in edges:
                self._accumulate(key, vjp(g))

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient for leaf ``t`` after backward: the array its
        contributions were added into, which the caller may write to.

        Keys restart on every tape, so a tensor of another tape (or none),
        or one that is not a leaf, gets zeros.
        """
        g = self._sums.get(t.key) if t.tape is self else None
        return np.zeros_like(t.data) if g is None else g


def _node(value, *edges) -> Tensor:
    """The output tensor of a primitive with value ``value``.

    Each edge is ``(input, vjp)``. The output joins the tape its taped
    inputs share, and the node keeps only their edges; an output with no
    taped input is a constant and records nothing.
    """
    tape, kept = None, []
    for edge in edges:
        t = edge[0]
        if isinstance(t, Tensor) and t.tape is not None:
            if tape is None:
                tape = t.tape
            elif t.tape is not tape:
                raise ValueError("operands were recorded on different tapes")
            kept.append(edge)
    if kept and tape._nodes is None:
        raise ValueError(_CONSUMED)
    out = Tensor(value, tape)
    if kept:
        tape._nodes.append((out.key, [(t.key, vjp) for t, vjp in kept]))
    return out


def _value(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _operands(name: str, *xs) -> list[np.ndarray]:
    """Values of the operands of primitive ``name``, whose float arrays must
    share one dtype, else a ``TypeError``. A Python scalar or a non-float
    array takes that dtype, as NumPy's weak scalars do."""
    values = [_value(x) for x in xs]
    if len({v.dtype for v in values}) == 1:
        return values
    floats = {
        v.dtype for x, v in zip(xs, values)
        if v.dtype.kind == "f" and not isinstance(x, (int, float))
    }
    if len(floats) > 1:
        raise TypeError(
            f"{name}: operands of {' and '.join(sorted(map(str, floats)))}; the "
            f"float arrays of a primitive share one dtype"
        )
    if not floats:
        return values
    (dtype,) = floats
    return [v if v.dtype == dtype else v.astype(dtype) for v in values]


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch-broadcast semantics (operands >= 2-D).

    A 2-D ``b`` is a weight shared by every leading index of ``a``; its
    gradient is one GEMM over the flattened leading axes.
    """
    av, bv = _operands("matmul", a, b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError(
            f"matmul operands must be at least 2-D, got {av.ndim}-D and {bv.ndim}-D"
        )
    if av.shape[-1] != bv.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions differ: {av.shape} @ {bv.shape}"
        )

    a_shape, b_shape = av.shape, bv.shape

    def grad_b(g):
        if len(b_shape) == 2:
            k, n = b_shape
            return av.reshape(-1, k).T @ g.reshape(-1, n)
        return _unbroadcast(np.swapaxes(av, -1, -2) @ g, b_shape)

    return _node(
        av @ bv,
        (a, lambda g: _unbroadcast(g @ np.swapaxes(bv, -1, -2), a_shape)),
        (b, grad_b),
    )


def linear(a, w, b) -> Tensor:
    """``a @ w + b`` as one node, for a 2-D weight ``w`` and a bias ``b``
    that broadcasts to the product.

    The bias is added in place into the product, so the node holds one
    output array where ``add(matmul(a, w), b)`` holds two; values and
    gradients equal that composition's bit for bit.
    """
    return _project("linear", a, w, b)


def _project(name: str, a, w, b, input_again: Callable | None = None) -> Tensor:
    """The node of ``linear(a, w, b)``, whose weight gradient reads the
    input's value from ``input_again()``, or keeps it when that is None."""
    av, wv, bv = _operands(name, a, w, b)
    if wv.ndim != 2:
        raise ValueError(f"linear needs a 2-D weight, got shape {wv.shape}")
    ov = av @ wv
    ov += bv
    k, n = wv.shape
    b_shape = bv.shape
    again = input_again or (lambda: av)
    return _node(
        ov,
        (a, lambda g: g @ wv.T),
        (w, lambda g: again().reshape(-1, k).T @ g.reshape(-1, n)),
        (b, lambda g: _unbroadcast(g, b_shape)),
    )


def add(a, b) -> Tensor:
    av, bv = _operands("add", a, b)
    a_shape, b_shape = av.shape, bv.shape
    return _node(
        av + bv,
        (a, lambda g: _unbroadcast(g, a_shape)),
        (b, lambda g: _unbroadcast(g, b_shape)),
    )


def sub(a, b) -> Tensor:
    av, bv = _operands("sub", a, b)
    a_shape, b_shape = av.shape, bv.shape
    return _node(
        av - bv,
        (a, lambda g: _unbroadcast(g, a_shape)),
        (b, lambda g: _unbroadcast(-g, b_shape)),
    )


def mul(a, b) -> Tensor:
    av, bv = _operands("mul", a, b)
    a_shape, b_shape = av.shape, bv.shape
    return _node(
        av * bv,
        (a, lambda g: _unbroadcast(g * bv, a_shape)),
        (b, lambda g: _unbroadcast(g * av, b_shape)),
    )


def div(a, b) -> Tensor:
    av, bv = _operands("div", a, b)
    a_shape, b_shape = av.shape, bv.shape
    return _node(
        av / bv,
        (a, lambda g: _unbroadcast(g / bv, a_shape)),
        (b, lambda g: _unbroadcast(-g * av / (bv * bv), b_shape)),
    )


def neg(a) -> Tensor:
    return _node(-_value(a), (a, lambda g: -g))


def scale(a, s: float) -> Tensor:
    """Multiply by a python scalar (kept separate from ``mul`` for clarity)."""
    s = float(s)
    return _node(_value(a) * s, (a, lambda g: g * s))


def sqrt(a) -> Tensor:
    ov = np.sqrt(_value(a))
    return _node(ov, (a, lambda g: 0.5 * g / ov))


def relu(a) -> Tensor:
    av = _value(a)
    return _node(np.maximum(av, 0.0), (a, lambda g: g * (av > 0)))


def gelu(a) -> Tensor:
    """Gaussian error linear unit, exact form x * Phi(x).

    On a tape, the derivative Phi(x) + x * phi(x) is computed here and is
    the one array the node keeps; an untaped call computes none.
    """
    av = _value(a)
    cdf = av * _INV_SQRT2
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = av * cdf
    if not (isinstance(a, Tensor) and a.tape is not None):
        return _node(out)
    d = -0.5 * av
    d *= av
    np.exp(d, out=d)
    d *= _INV_SQRT2PI
    d *= av
    d += cdf
    return _node(out, (a, lambda g: g * d))


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max subtraction along ``axis``)."""
    av = _value(a)
    s = av - av.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)

    def grad(g):
        gs = g * s
        np.subtract(g, gs.sum(axis=axis, keepdims=True), out=gs)
        gs *= s
        return gs

    return _node(s, (a, grad))


def log_softmax(a, axis: int = -1) -> Tensor:
    av = _value(a)
    shifted = av - av.max(axis=axis, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return _node(
        ls, (a, lambda g: g - np.exp(ls) * g.sum(axis=axis, keepdims=True))
    )


def _affine(xhat: np.ndarray, gv, bv, out: np.ndarray | None = None) -> np.ndarray:
    """``xhat * gain + bias``, written into ``out`` (or a new array)."""
    out = np.multiply(xhat, gv, out=out)
    out += bv
    return out


def _layer_norm(name: str, a, gain, bias, eps: float):
    """The node of ``layer_norm``, and the arrays ``_affine`` rebuilds its
    value from: the normalised input, the gain and the bias."""
    av, gv, bv = _operands(name, a, gain, bias)
    mu = av.mean(axis=-1, keepdims=True)
    xhat = av - mu
    sq = xhat * xhat
    var = sq.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv

    def grad_a(g):
        dxhat = g * gv
        m1 = dxhat.mean(axis=-1, keepdims=True)
        t = dxhat * xhat
        m2 = t.mean(axis=-1, keepdims=True)
        dxhat -= m1
        np.multiply(xhat, m2, out=t)
        dxhat -= t
        dxhat *= inv
        return dxhat

    g_shape, b_shape = gv.shape, bv.shape
    out = _node(
        _affine(xhat, gv, bv, out=sq),
        (gain, lambda g: _unbroadcast(g * xhat, g_shape)),
        (bias, lambda g: _unbroadcast(g, b_shape)),
        (a, grad_a),
    )
    return out, (xhat, gv, bv)


def layer_norm(a, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalise over the last axis, then apply elementwise gain and bias."""
    return _layer_norm("layer_norm", a, gain, bias, eps)[0]


def norm_linear(a, gain, bias, w, b, eps: float = 1e-6) -> Tensor:
    """``linear(layer_norm(a, gain, bias, eps), w, b)``, recorded as that
    composition's two nodes, but keeping the normalised input instead of
    the projection's input ``y``: the weight's gradient map rebuilds ``y``
    with the forward's operations, so the pair holds one full-size array
    fewer. Values and gradients equal the composition's bit for bit.
    """
    y, parts = _layer_norm("norm_linear", a, gain, bias, eps)
    return _project("norm_linear", y, w, b, lambda: _affine(*parts))


def _expand_axes(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool):
    if keepdims or axis is None:
        return g if axis is not None else np.broadcast_to(g, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    g = np.expand_dims(g, axes)
    return g


def asum(a, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (all axes when None)."""
    av = _value(a)
    shape = av.shape

    def grad(g):
        gg = _expand_axes(np.asarray(g), shape, axis, keepdims)
        return np.broadcast_to(gg, shape).copy()

    return _node(av.sum(axis=axis, keepdims=keepdims), (a, grad))


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    av = _value(a)
    ov = av.mean(axis=axis, keepdims=keepdims)
    shape, count = av.shape, av.size / ov.size

    def grad(g):
        gg = _expand_axes(np.asarray(g), shape, axis, keepdims)
        return np.broadcast_to(gg, shape) / count

    return _node(ov, (a, grad))


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    def grad(g):
        return g.transpose(None if axes is None else np.argsort(axes))

    return _node(_value(a).transpose(axes), (a, grad))


def reshape(a, shape: Sequence[int]) -> Tensor:
    av = _value(a)
    a_shape = av.shape
    return _node(av.reshape(shape), (a, lambda g: g.reshape(a_shape)))


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    values = _operands("concat", *parts)
    ov = np.concatenate(values, axis=axis)
    axis %= ov.ndim
    sizes = [v.shape[axis] for v in values]

    def piece(stop, size):
        key = (slice(None),) * axis + (slice(stop - size, stop),)
        return lambda g: g[key]  # a view, as np.split gives

    return _node(
        ov, *[(p, piece(e, n)) for p, e, n in zip(parts, accumulate(sizes), sizes)]
    )


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    av = _value(a)
    a_shape = av.shape
    return _node(
        np.broadcast_to(av, tuple(shape)).copy(),
        (a, lambda g: _unbroadcast(g, a_shape)),
    )


def _is_basic_key(key) -> bool:
    """True for keys numpy treats as basic indexing: ints, slices, ``...``
    and ``None``. A bool is an int, but ``a[True]`` is advanced indexing."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        k is None
        or k is Ellipsis
        or isinstance(k, slice)
        or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
        for k in parts
    )


def _scatter_add(av: np.ndarray, key):
    """The gradient map of ``av[key]`` for an advanced ``key``: a zero array
    of ``av``'s shape and dtype with the gradient added at ``key``, so that
    repeated indices accumulate, which plain ``z[key] += g`` would drop."""
    shape, dtype = av.shape, av.dtype

    def grad(g):
        z = np.zeros(shape, dtype)
        np.add.at(z, key, g)
        return z

    return grad


def take(a, key) -> Tensor:
    """Indexing (ints, slices, index arrays); gradients scatter back.

    A basic key selects each element at most once, so its gradient is the
    slice itself, which the tape scatters into the input's gradient; an
    index-array key scatters through ``_scatter_add``.
    """
    av = _value(a)
    if _is_basic_key(key):
        shape, dtype = av.shape, av.dtype
        order = tuple(sorted(range(av.ndim), key=lambda i: -abs(av.strides[i])))
        return _node(av[key], (a, lambda g: _Slice(shape, dtype, order, key, g)))
    return _node(av[key], (a, _scatter_add(av, key)))


def gather(a, index) -> Tensor:
    """Row-wise column gather: out[i, k] = a[i, index[i, k]].

    ``a`` is [N, C], ``index`` is an integer array [N, K]; repeated column
    indices are allowed and their gradients accumulate.
    """
    av = _value(a)
    idx = np.asarray(index, dtype=np.int64)
    if av.ndim != 2 or idx.ndim != 2 or idx.shape[0] != av.shape[0]:
        raise ValueError(
            f"gather expects a [N, C] array and [N, K] index, got {av.shape} "
            f"and {idx.shape}"
        )
    key = (np.arange(av.shape[0])[:, None], idx)
    return _node(av[key], (a, _scatter_add(av, key)))


def l2_normalize(a, axis: int = -1) -> Tensor:
    """Scale rows along ``axis`` to unit Euclidean norm; zero rows rejected."""
    av = _value(a)
    norm = np.sqrt((av * av).sum(axis=axis, keepdims=True))
    if np.any(norm == 0.0):
        where = np.argwhere(norm == 0.0)[0]
        raise ValueError(
            f"cannot normalise a zero-norm slice at index {tuple(where.tolist())}"
        )
    y = av / norm

    def grad(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (g - y * inner) / norm

    return _node(y, (a, grad))


def stop_gradient(a) -> Tensor:
    """Detach from any tape; values are the same array, bit for bit."""
    return Tensor(_value(a), None)


@dataclass
class GradCheckResult:
    """Outcome of a finite-difference sweep over every input coordinate.

    ``nonsmooth`` and ``nonfinite`` list (argument index, coordinate) pairs
    that were excluded: coordinates where one-sided slopes disagree (kinks)
    or where a probe produced a non-finite value. ``max_rel_err`` covers the
    remaining coordinates, with relative error defined as
    |fd - ad| / max(1e-8, |fd| + |ad|).
    """

    max_rel_err: float
    checked: int
    nonsmooth: list = field(default_factory=list)
    nonfinite: list = field(default_factory=list)


def check_gradients(fn, points, step: float = 1e-4) -> GradCheckResult:
    """Compare tape gradients of a scalar function against central differences.

    ``fn`` maps one or more Tensors to a scalar Tensor. ``points`` is one
    array or a sequence of arrays, evaluated at 64-bit precision. Kinks are
    detected by comparing the two one-sided slopes and excluded rather than
    failed, as are coordinates whose probes go non-finite. A ``step`` that
    is not a finite positive real is a ``ValueError``.
    """
    # written as "not (ok)" so that a NaN fails
    if not (is_real(step) and 0 < step < math.inf):
        raise ValueError(
            f"finite-difference step must be a finite positive real, got {step!r}"
        )
    single = not isinstance(points, (list, tuple))
    pts = [np.array(p, dtype=np.float64) for p in ([points] if single else points)]

    tape = Tape()
    tvars = [tape.var(p) for p in pts]
    out = fn(*tvars)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ValueError("function under check must return a scalar Tensor")
    tape.backward(out)
    grads = [tape.grad(v) for v in tvars]

    def evaluate() -> float:
        res = fn(*[Tensor(p) for p in pts])
        return float(res.data)

    f0 = evaluate()
    max_rel = 0.0
    checked = 0
    nonsmooth: list = []
    nonfinite: list = []
    for ai, p in enumerate(pts):
        flat = p.reshape(-1)
        for ci in range(flat.size):
            orig = flat[ci]
            flat[ci] = orig + step
            fp = evaluate()
            flat[ci] = orig - step
            fm = evaluate()
            flat[ci] = orig
            coord = (ai, np.unravel_index(ci, p.shape))
            if not (np.isfinite(fp) and np.isfinite(fm) and np.isfinite(f0)):
                nonfinite.append(coord)
                continue
            d_plus = (fp - f0) / step
            d_minus = (f0 - fm) / step
            if abs(d_plus - d_minus) > 1e-2 * max(1.0, abs(d_plus), abs(d_minus)):
                nonsmooth.append(coord)
                continue
            fd = (fp - fm) / (2.0 * step)
            ad = float(grads[ai].reshape(-1)[ci])
            rel = abs(fd - ad) / max(1e-8, abs(fd) + abs(ad))
            max_rel = max(max_rel, rel)
            checked += 1
    return GradCheckResult(max_rel, checked, nonsmooth, nonfinite)
