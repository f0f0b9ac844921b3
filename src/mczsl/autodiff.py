"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough ops for the model: add, sub and mul with numpy broadcasting,
matrix products, a transpose of the last two axes, sums, log, an elementwise
floor, gather, and stable softmax/logsumexp. Every Tensor holds float64
data; gradients accumulate in float64. Graphs are built eagerly and freed
when the tensors go away. Each op states one gradient function per operand,
and `_make` keeps only those of operands that need a gradient (trainable
leaves and the nodes built from them), so a backward pass computes no
gradient for a constant. Only leaves keep their gradients.

A C-contiguous stack of matrices (a block's V, or V w) times one matrix runs
as one 2-D product over the stacked rows, and so does that stack's gradient
g B'; every other product is np.matmul. softmax takes its values from
numeric.softmax, and logsumexp shifts by numeric.row_max, the exact row max
that numeric.softmax shifts by too.
"""
from __future__ import annotations

import numpy as np

from . import numeric
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
        if not (self.requires_grad or self._parents):
            return  # a constant has no gradient
        order = _topo_order(self)
        g0 = np.broadcast_to(np.asarray(seed, dtype=np.float64), self.data.shape)
        _accumulate(self, g0)
        for t in reversed(order):
            if t._parents:
                t._backward(t.grad)
                t.grad = None

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """Wrap data as a graph leaf that never receives gradient."""
    return Tensor(x, requires_grad=False)


def _topo_order(root: Tensor) -> list[Tensor]:
    # iterative DFS; recursion would be fine at our depths but this is cheap
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
    return order


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        # a copy, never g itself: _unbroadcast can hand one g to both operands
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _make(data, *pulls) -> Tensor:
    """A node holding `data`. Each pull is (operand, g -> that operand's
    gradient); only operands that need a gradient (trainable leaves and the
    nodes built from them) keep theirs, and the node's backward runs those."""
    out = Tensor(data)
    live = [p for p in pulls if p[0].requires_grad or p[0]._parents]
    if live:
        out._parents = tuple([p[0] for p in live])

        def backward(g):
            for t, grad in live:
                _accumulate(t, grad(g))

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
    return _make(a.data + b.data,
                 (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data,
                 (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data,
                 (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                 (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def matmul(a, b) -> Tensor:
    """np.matmul: leading axes broadcast, and a 1-D operand is a row (left) or
    a column (right) vector whose axis the result drops."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    try:
        out_data = _product(ad, bd)
    except ValueError as e:
        raise ShapeError(f"matmul shapes do not match: {ad.shape} x {bd.shape}") from e

    def grad_a(g):
        a2, b2, g2 = _matrices(ad, bd, g)
        if a2.ndim == 2 < g2.ndim:  # sum_i g_i b_i' over the stacked batch rows
            return (_stacked(_swap(g2)).T @ _stacked(_swap(b2))).reshape(ad.shape)
        return _unbroadcast(_product(g2, _swap(b2)), a2.shape).reshape(ad.shape)

    def grad_b(g):
        a2, b2, g2 = _matrices(ad, bd, g)
        if b2.ndim == 2 < g2.ndim:  # sum_i a_i' g_i over the stacked batch rows
            return (_stacked(a2).T @ _stacked(g2)).reshape(bd.shape)
        return _unbroadcast(_swap(a2) @ g2, b2.shape).reshape(bd.shape)

    return _make(out_data, (a, grad_a), (b, grad_b))


def _matrices(ad: np.ndarray, bd: np.ndarray, g: np.ndarray):
    """The operands and the output gradient of a product with the axes of 1-D
    operands restored, so every one is (a stack of) matrices."""
    a2 = ad[None, :] if ad.ndim == 1 else ad
    b2 = bd[:, None] if bd.ndim == 1 else bd
    g2 = g[..., None] if bd.ndim == 1 else g
    return a2, b2, g2[..., None, :] if ad.ndim == 1 else g2


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.matmul(x, y). A C-contiguous stack of matrices times one matrix runs
    as one 2-D product over the stacked rows, not one small product per matrix."""
    if x.ndim > 2 == y.ndim and x.flags.c_contiguous and x.size:  # (-1, 0) cannot reshape
        return (_stacked(x) @ y).reshape(x.shape[:-1] + y.shape[-1:])
    return np.matmul(x, y)


def _stacked(x: np.ndarray) -> np.ndarray:
    """The matrices of a batched array stacked by rows: a view, not a copy, when
    x is C-contiguous (V is, once its transposed view V' is swapped back)."""
    return x.reshape(-1, x.shape[-1])


def transpose(a) -> Tensor:
    """The last two axes swapped, as a view; the gradient is swapped back."""
    a = as_tensor(a)
    return _make(_swap(a.data), (a, _swap))


def tsum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def grad(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.data.shape)  # _accumulate copies or adds it

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a, grad))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.log(a.data), (a, lambda g: g / a.data))


def floor_at(a, lo: float) -> Tensor:
    """Elementwise max(a, lo); gradient passes through where a >= lo."""
    a = as_tensor(a)
    return _make(np.maximum(a.data, lo), (a, lambda g: g * (a.data >= lo)))


def take(a, indices, axis: int = 0) -> Tensor:
    """Gather along `axis`: entries of a vector, rows of a matrix (axis 0) or
    the same columns of every row (axis -1). Repeated indices accumulate."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)

    def grad(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (slice(None),) * (axis % a.data.ndim) + (idx,), g)
        return full

    return _make(np.take(a.data, idx, axis=axis), (a, grad))


def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax along `axis` with the exact softmax Jacobian in backward."""
    a = as_tensor(a)
    s = numeric.softmax(a.data, axis=axis)
    return _make(s, (a, lambda g: (g - (g * s).sum(axis=axis, keepdims=True)) * s))


def logsumexp(a) -> Tensor:
    """log(sum(exp(a))) along the last axis, max-shifted; backward is softmax(a)."""
    a = as_tensor(a)
    m = numeric.row_max(a.data, axis=-1)
    e = np.exp(a.data - m)
    z = e.sum(axis=-1, keepdims=True)
    return _make((np.log(z) + m)[..., 0], (a, lambda g: g[..., None] * (e / z)))
