"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` records every primitive applied to tensors attached to it, in
execution order. Because the recording is a topological order of the data
flow, ``backward`` is a single reverse sweep that pops each node's output
gradient and pushes contributions onto its inputs, accumulating additively
at fan-out points. Tensors built without a tape (or passed through
``stop_gradient``) act as constants: primitives still compute values for
them but record nothing.

Values are 64-bit floats by default; 32-bit arrays pass through unchanged
for callers that opt in, with correspondingly looser gradient checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _erf

__all__ = [
    "Tensor",
    "Tape",
    "GradCheckResult",
    "matmul",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "scale",
    "exp",
    "log",
    "sqrt",
    "relu",
    "gelu",
    "softmax",
    "log_softmax",
    "layer_norm",
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


class Tensor:
    """A dense array plus the tape (if any) that is recording it."""

    __slots__ = ("data", "tape")

    def __init__(self, data, tape: "Tape | None" = None):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # operator sugar; all routes through the module-level primitives
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)


class Tape:
    """Execution-ordered record of primitives, replayed backwards for grads."""

    __slots__ = ("_nodes", "_grads")

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._grads: dict[int, np.ndarray] = {}

    def var(self, data) -> Tensor:
        """Attach a leaf variable to this tape."""
        return Tensor(data, self)

    def _record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]):
        self._nodes.append((out, backward_fn))

    def _accumulate(self, t: Tensor, delta: np.ndarray):
        if not isinstance(t, Tensor) or t.tape is not self:
            return
        key = id(t)
        cur = self._grads.get(key)
        self._grads[key] = delta if cur is None else cur + delta

    def backward(self, loss: Tensor):
        """Propagate d(loss)/d(tensor) to every tensor recorded on this tape.

        ``loss`` must be scalar. Call once per tape; gradients of leaves are
        then available through ``grad``.
        """
        if not isinstance(loss, Tensor) or loss.tape is not self:
            raise ValueError("loss is not a tensor recorded on this tape")
        if loss.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        self._grads = {id(loss): np.ones_like(loss.data)}
        for out, backward_fn in reversed(self._nodes):
            g = self._grads.pop(id(out), None)
            if g is None:
                continue  # not an ancestor of the loss
            backward_fn(g)

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient for ``t`` after backward; zeros if the loss ignores it."""
        g = self._grads.get(id(t))
        return np.zeros_like(t.data) if g is None else g


def _value(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    arr = np.asarray(x)
    return arr


def _operands(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Values of an elementwise binary op. A Python scalar takes the float
    dtype of the other operand, as NumPy's weak scalars do, instead of
    turning a float32 operation into a float64 one."""
    av, bv = _value(a), _value(b)
    if isinstance(a, (int, float)) and bv.dtype.kind == "f":
        av = av.astype(bv.dtype)
    if isinstance(b, (int, float)) and av.dtype.kind == "f":
        bv = bv.astype(av.dtype)
    return av, bv


def _tape_of(*xs) -> Tape | None:
    tape = None
    for x in xs:
        if isinstance(x, Tensor) and x.tape is not None:
            if tape is None:
                tape = x.tape
            elif tape is not x.tape:
                raise ValueError("operands were recorded on different tapes")
    return tape


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
    av, bv = _value(a), _value(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError(
            f"matmul operands must be at least 2-D, got {av.ndim}-D and {bv.ndim}-D"
        )
    if av.shape[-1] != bv.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions differ: {av.shape} @ {bv.shape}"
        )
    tape = _tape_of(a, b)
    out = Tensor(av @ bv, tape)
    if tape is not None:

        def backward(g):
            tape._accumulate(a, _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape))
            if bv.ndim == 2:
                k, n = bv.shape
                gb = av.reshape(-1, k).T @ g.reshape(-1, n)
            else:
                gb = _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)
            tape._accumulate(b, gb)

        tape._record(out, backward)
    return out


def add(a, b) -> Tensor:
    av, bv = _operands(a, b)
    tape = _tape_of(a, b)
    out = Tensor(av + bv, tape)
    if tape is not None:

        def backward(g):
            tape._accumulate(a, _unbroadcast(g, av.shape))
            tape._accumulate(b, _unbroadcast(g, bv.shape))

        tape._record(out, backward)
    return out


def sub(a, b) -> Tensor:
    av, bv = _operands(a, b)
    tape = _tape_of(a, b)
    out = Tensor(av - bv, tape)
    if tape is not None:

        def backward(g):
            tape._accumulate(a, _unbroadcast(g, av.shape))
            tape._accumulate(b, _unbroadcast(-g, bv.shape))

        tape._record(out, backward)
    return out


def mul(a, b) -> Tensor:
    av, bv = _operands(a, b)
    tape = _tape_of(a, b)
    out = Tensor(av * bv, tape)
    if tape is not None:

        def backward(g):
            tape._accumulate(a, _unbroadcast(g * bv, av.shape))
            tape._accumulate(b, _unbroadcast(g * av, bv.shape))

        tape._record(out, backward)
    return out


def div(a, b) -> Tensor:
    av, bv = _operands(a, b)
    tape = _tape_of(a, b)
    out = Tensor(av / bv, tape)
    if tape is not None:

        def backward(g):
            tape._accumulate(a, _unbroadcast(g / bv, av.shape))
            tape._accumulate(b, _unbroadcast(-g * av / (bv * bv), bv.shape))

        tape._record(out, backward)
    return out


def neg(a) -> Tensor:
    av = _value(a)
    tape = _tape_of(a)
    out = Tensor(-av, tape)
    if tape is not None:
        tape._record(out, lambda g: tape._accumulate(a, -g))
    return out


def scale(a, s: float) -> Tensor:
    """Multiply by a python scalar (kept separate from ``mul`` for clarity)."""
    av = _value(a)
    s = float(s)
    tape = _tape_of(a)
    out = Tensor(av * s, tape)
    if tape is not None:
        tape._record(out, lambda g: tape._accumulate(a, g * s))
    return out


def exp(a) -> Tensor:
    av = _value(a)
    tape = _tape_of(a)
    ov = np.exp(av)
    out = Tensor(ov, tape)
    if tape is not None:
        tape._record(out, lambda g: tape._accumulate(a, g * ov))
    return out


def log(a) -> Tensor:
    av = _value(a)
    tape = _tape_of(a)
    out = Tensor(np.log(av), tape)
    if tape is not None:
        tape._record(out, lambda g: tape._accumulate(a, g / av))
    return out


def sqrt(a) -> Tensor:
    av = _value(a)
    tape = _tape_of(a)
    ov = np.sqrt(av)
    out = Tensor(ov, tape)
    if tape is not None:
        tape._record(out, lambda g: tape._accumulate(a, 0.5 * g / ov))
    return out


def relu(a) -> Tensor:
    av = _value(a)
    tape = _tape_of(a)
    out = Tensor(np.maximum(av, 0.0), tape)
    if tape is not None:
        tape._record(out, lambda g: tape._accumulate(a, g * (av > 0)))
    return out


def gelu(a) -> Tensor:
    """Gaussian error linear unit, exact form x * Phi(x)."""
    av = _value(a)
    tape = _tape_of(a)
    cdf = 0.5 * (1.0 + _erf(av * _INV_SQRT2))
    out = Tensor(av * cdf, tape)
    if tape is not None:

        def backward(g):
            pdf = np.exp(-0.5 * av * av) * _INV_SQRT2PI
            tape._accumulate(a, g * (cdf + av * pdf))

        tape._record(out, backward)
    return out


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max subtraction along ``axis``)."""
    av = _value(a)
    tape = _tape_of(a)
    shifted = av - av.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s, tape)
    if tape is not None:

        def backward(g):
            inner = (g * s).sum(axis=axis, keepdims=True)
            tape._accumulate(a, s * (g - inner))

        tape._record(out, backward)
    return out


def log_softmax(a, axis: int = -1) -> Tensor:
    av = _value(a)
    tape = _tape_of(a)
    shifted = av - av.max(axis=axis, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = Tensor(ls, tape)
    if tape is not None:

        def backward(g):
            tape._accumulate(a, g - np.exp(ls) * g.sum(axis=axis, keepdims=True))

        tape._record(out, backward)
    return out


def layer_norm(a, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalise over the last axis, then apply elementwise gain and bias."""
    av, gv, bv = _value(a), _value(gain), _value(bias)
    tape = _tape_of(a, gain, bias)
    mu = av.mean(axis=-1, keepdims=True)
    xc = av - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gv + bv, tape)
    if tape is not None:

        def backward(g):
            tape._accumulate(gain, _unbroadcast(g * xhat, gv.shape))
            tape._accumulate(bias, _unbroadcast(g, bv.shape))
            dxhat = g * gv
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            tape._accumulate(a, inv * (dxhat - m1 - xhat * m2))

        tape._record(out, backward)
    return out


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
    tape = _tape_of(a)
    out = Tensor(av.sum(axis=axis, keepdims=keepdims), tape)
    if tape is not None:

        def backward(g):
            gg = _expand_axes(np.asarray(g), av.shape, axis, keepdims)
            tape._accumulate(a, np.broadcast_to(gg, av.shape).copy())

        tape._record(out, backward)
    return out


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    av = _value(a)
    tape = _tape_of(a)
    out = Tensor(av.mean(axis=axis, keepdims=keepdims), tape)
    if tape is not None:
        count = av.size / out.data.size

        def backward(g):
            gg = _expand_axes(np.asarray(g), av.shape, axis, keepdims)
            tape._accumulate(a, np.broadcast_to(gg, av.shape) / count)

        tape._record(out, backward)
    return out


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    av = _value(a)
    tape = _tape_of(a)
    out = Tensor(av.transpose(axes), tape)
    if tape is not None:
        inv = None if axes is None else np.argsort(np.asarray(axes))

        def backward(g):
            tape._accumulate(a, g.transpose(inv))

        tape._record(out, backward)
    return out


def reshape(a, shape: Sequence[int]) -> Tensor:
    av = _value(a)
    tape = _tape_of(a)
    out = Tensor(av.reshape(shape), tape)
    if tape is not None:
        tape._record(out, lambda g: tape._accumulate(a, g.reshape(av.shape)))
    return out


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    values = [_value(p) for p in parts]
    tape = _tape_of(*parts)
    out = Tensor(np.concatenate(values, axis=axis), tape)
    if tape is not None:
        offsets = np.cumsum([v.shape[axis] for v in values])[:-1]

        def backward(g):
            for p, piece in zip(parts, np.split(g, offsets, axis=axis)):
                tape._accumulate(p, piece)

        tape._record(out, backward)
    return out


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    av = _value(a)
    tape = _tape_of(a)
    out = Tensor(np.broadcast_to(av, tuple(shape)).copy(), tape)
    if tape is not None:
        tape._record(out, lambda g: tape._accumulate(a, _unbroadcast(g, av.shape)))
    return out


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


def take(a, key) -> Tensor:
    """Indexing (ints, slices, index arrays); gradients scatter back.

    A basic key selects each element at most once, so its gradient is a
    plain assignment. Repeated indices in an index-array key accumulate
    their gradients, which plain ``z[key] += g`` would silently drop.
    """
    av = _value(a)
    tape = _tape_of(a)
    out = Tensor(av[key], tape)
    if tape is not None:
        basic = _is_basic_key(key)

        def backward(g):
            z = np.zeros_like(av)
            if basic:
                z[key] = g
            else:
                np.add.at(z, key, g)
            tape._accumulate(a, z)

        tape._record(out, backward)
    return out


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
    tape = _tape_of(a)
    rows = np.arange(av.shape[0])[:, None]
    out = Tensor(av[rows, idx], tape)
    if tape is not None:

        def backward(g):
            z = np.zeros_like(av)
            np.add.at(z, (rows, idx), g)
            tape._accumulate(a, z)

        tape._record(out, backward)
    return out


def l2_normalize(a, axis: int = -1) -> Tensor:
    """Scale rows along ``axis`` to unit Euclidean norm; zero rows rejected."""
    av = _value(a)
    tape = _tape_of(a)
    norm = np.sqrt((av * av).sum(axis=axis, keepdims=True))
    if np.any(norm == 0.0):
        where = np.argwhere(norm == 0.0)[0]
        raise ValueError(
            f"cannot normalise a zero-norm slice at index {tuple(where)}"
        )
    y = av / norm
    out = Tensor(y, tape)
    if tape is not None:

        def backward(g):
            inner = (g * y).sum(axis=axis, keepdims=True)
            tape._accumulate(a, (g - y * inner) / norm)

        tape._record(out, backward)
    return out


def stop_gradient(a) -> Tensor:
    """Detach from any tape; values are the same array, bit for bit."""
    if isinstance(a, Tensor):
        return Tensor(a.data, None)
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
    failed, as are coordinates whose probes go non-finite.
    """
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
