"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough ops for the model: elementwise arithmetic and matrix products
with numpy broadcasting, reductions, exp/log, stable softmax/logsumexp, gather,
and an elementwise floor. Every Tensor holds float64 data; gradients accumulate
in float64. Graphs are built eagerly and freed when the tensors go away.
A backward pass computes gradients only for tensors that need one (trainable
leaves and the nodes built from them), and only leaves keep theirs.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self, seed=1.0) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad.

        An interior node's .grad is dropped once it has been propagated, so a
        pass holds only the gradients still in flight, and a later backward
        through shared nodes cannot propagate a stale one again."""
        order = _topo_order(self)
        g0 = np.broadcast_to(np.asarray(seed, dtype=np.float64), self.data.shape)
        _accumulate(self, np.array(g0, dtype=np.float64))
        for t in reversed(order):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)
            if t._parents:
                t.grad = None

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """Wrap data as a graph leaf that never receives gradient."""
    return Tensor(x, requires_grad=False)


def _topo_order(root: Tensor) -> list[Tensor]:
    # iterative DFS; recursion would be fine at our depths but this is cheap
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # leaf constants never receive gradient; interior nodes need it to propagate
    if not (t.requires_grad or t._parents):
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _needs_grad(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents for t in tensors)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _needs_grad(*parents):
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """np.matmul: leading axes broadcast, and a 1-D operand is a row (left) or
    a column (right) vector whose axis the result drops."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    try:
        out_data = np.matmul(ad, bd)
    except ValueError as e:
        raise ShapeError(f"matmul shapes do not match: {ad.shape} x {bd.shape}") from e

    def backward(g):
        a2 = ad[None, :] if ad.ndim == 1 else ad
        b2 = bd[:, None] if bd.ndim == 1 else bd
        g2 = g[..., None] if bd.ndim == 1 else g
        g2 = g2[..., None, :] if ad.ndim == 1 else g2
        # only operands that need a gradient get a product
        if _needs_grad(a):
            if a2.ndim == 2 < g2.ndim:  # sum_i g_i b_i' over the stacked batch rows
                ga = _stacked(_swap(g2)).T @ _stacked(_swap(b2))
            else:
                ga = _unbroadcast(g2 @ _swap(b2), a2.shape)
            _accumulate(a, ga.reshape(ad.shape))
        if _needs_grad(b):
            if b2.ndim == 2 < g2.ndim:  # sum_i a_i' g_i over the stacked batch rows
                gb = _stacked(a2).T @ _stacked(g2)
            else:
                gb = _unbroadcast(_swap(a2) @ g2, b2.shape)
            _accumulate(b, gb.reshape(bd.shape))

    return _make(out_data, (a, b), backward)


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _stacked(x: np.ndarray) -> np.ndarray:
    """The matrices of a batched array stacked by rows: a view, not a copy, when
    x is C-contiguous (V is, once its transposed view V' is swapped back)."""
    return x.reshape(-1, x.shape[-1])


def tsum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data)

    return _make(out_data, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(g):
        _accumulate(a, g / a.data)

    return _make(out_data, (a,), backward)


def floor_at(a, lo: float) -> Tensor:
    """Elementwise max(a, lo); gradient passes through where a >= lo."""
    a = as_tensor(a)
    out_data = np.maximum(a.data, lo)

    def backward(g):
        _accumulate(a, g * (a.data >= lo))

    return _make(out_data, (a,), backward)


def take(a, indices, axis: int = 0) -> Tensor:
    """Gather along `axis`: entries of a vector, rows of a matrix (axis 0) or
    the same columns of every row (axis -1). Repeated indices accumulate."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    out_data = np.take(a.data, idx, axis=axis)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (slice(None),) * (axis % a.data.ndim) + (idx,), g)
        _accumulate(a, full)

    return _make(out_data, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax along `axis` with the exact softmax Jacobian in backward."""
    a = as_tensor(a)
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        _accumulate(a, (g - inner) * s)

    return _make(s, (a,), backward)


def logsumexp(a) -> Tensor:
    """log(sum(exp(a))) along the last axis, max-shifted; backward is softmax(a)."""
    a = as_tensor(a)
    m = np.max(a.data, axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    z = e.sum(axis=-1, keepdims=True)
    out_data = (np.log(z) + m)[..., 0]

    def backward(g):
        _accumulate(a, g[..., None] * (e / z))

    return _make(out_data, (a,), backward)
