"""The engine's own oracle: every op's backward is compared against central
differences of its forward, computed independently inside the tests."""
import numpy as np
import pytest

from mczsl import autodiff as ad
from mczsl.errors import ShapeError
from mczsl.gradcheck import directional_check
from mczsl.numeric import make_rng


def numeric_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn(x)
        flat[i] = orig - eps
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def check_op(build, shapes, seed=0, tol=1e-7, view=lambda x: x):
    """build(tensors) -> scalar Tensor; verifies grads for every input. Each
    input's data is view(array), a linear view of an array of its shape (the
    array itself by default), and its gradient is compared as view(gradient)."""
    rng = make_rng(seed)
    arrays = [rng.standard_normal(s) if s else np.array(rng.standard_normal())
              for s in shapes]
    tensors = [ad.Tensor(view(a.copy()), requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for idx in range(len(arrays)):
        def scalar_fn(x, idx=idx):
            args = [ad.Tensor(view(a)) for a in arrays]
            args[idx] = ad.Tensor(view(x))
            return float(build(*args).data)

        expected = view(numeric_grad(scalar_fn, arrays[idx].copy()))
        got = tensors[idx].grad
        assert got is not None
        assert np.max(np.abs(got - expected)) < tol, f"input {idx}"


def test_add_broadcast():
    check_op(lambda a, b: ad.tsum(ad.mul(ad.add(a, b), ad.add(a, b))), [(3, 4), (4,)])


def test_sub_and_neg():
    check_op(lambda a, b: ad.tsum(ad.mul(ad.sub(a, b), ad.sub(a, b))), [(2, 3), (2, 3)])
    check_op(lambda a: ad.tsum(ad.mul(-a, -a)), [(5,)])


def test_mul_broadcast_scalar():
    check_op(lambda a: ad.tsum(ad.mul(a, 2.5)), [(4, 2)])
    check_op(lambda a, b: ad.tsum(ad.mul(a, b)), [(3, 1), (1, 4)])


@pytest.mark.parametrize("sa,sb", [((3, 4), (4, 2)), ((4,), (4, 2)), ((3, 4), (4,)), ((5,), (5,)),
                                   ((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)), ((4,), (2, 4, 5)),
                                   ((2, 1, 3, 4), (5, 4, 2))])
def test_matmul_all_arities(sa, sb):
    check_op(lambda a, b: ad.tsum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), [sa, sb])


def test_matmul_swapped_stack_takes_the_fallback():
    # a swapped-axes view of a (2, 4, 3) stack is a (2, 3, 4) stack that is not
    # C-contiguous, so its product with a (4, 5) matrix runs through np.matmul
    def swap_stacks(x):
        return np.swapaxes(x, -1, -2) if x.ndim == 3 else x

    a = swap_stacks(make_rng(6).standard_normal((2, 4, 3)))
    b = make_rng(7).standard_normal((4, 5))
    assert a.shape == (2, 3, 4) and not a.flags.c_contiguous
    assert ad.matmul(a, b).data.tobytes() == np.matmul(a, b).tobytes()
    check_op(lambda a, b: ad.tsum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
             [(2, 4, 3), (4, 5)], view=swap_stacks)


@pytest.mark.parametrize("b", [1, 50, 637])
def test_stacked_products_equal_np_matmul_bitwise(b):
    # the synthetic shape (K=12, R=9, D=Da=16): V w, (V w) A' and the gradient
    # g A of the stacked operand run as one 2-D product over the stacked rows
    rng = make_rng(b)
    V, w = rng.standard_normal((b, 9, 16)), rng.standard_normal((16, 16))
    A = rng.standard_normal((12, 16))
    Vw = ad.matmul(V, w).data
    assert Vw.tobytes() == np.matmul(V, w).tobytes()
    leaf = ad.Tensor(Vw, requires_grad=True)
    table = ad.matmul(leaf, A.T)
    assert table.data.tobytes() == np.matmul(Vw, A.T).tobytes()
    g = rng.standard_normal(table.shape)
    table.backward(seed=g)
    assert leaf.grad.tobytes() == np.matmul(g, A).tobytes()


def test_matmul_shape_error():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 2))))
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
        ad.matmul(ad.Tensor(np.zeros((2, 3, 4))), ad.Tensor(np.zeros((3, 4, 5))))


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
def test_transpose_is_a_view_with_the_gradient_swapped_back(shape):
    a = ad.Tensor(make_rng(8).standard_normal(shape), requires_grad=True)
    t = ad.transpose(a)
    assert t.shape == shape[:-2] + shape[:-3:-1] and np.shares_memory(t.data, a.data)
    assert np.array_equal(t.data, np.swapaxes(a.data, -1, -2))
    weights = ad.constant(np.arange(float(a.data.size)).reshape(t.shape))
    check_op(lambda a: ad.tsum(ad.mul(ad.transpose(a), weights)), [shape])


def test_transpose_passes_the_directional_check():
    # V w' A', the form of the attribute reading's tables, against central
    # differences along random directions of w
    rng = make_rng(9)
    V, A = rng.standard_normal((2, 5, 4)), rng.standard_normal((6, 3))
    C = rng.standard_normal((2, 5, 6))

    def loss_fn(params):
        w = ad.Tensor(params["w"], requires_grad=True)
        table = ad.matmul(ad.matmul(ad.constant(V), ad.transpose(w)), ad.constant(A.T))
        loss = ad.tsum(ad.mul(ad.softmax(table, axis=-2), ad.constant(C)))
        loss.backward()
        return loss.item(), {"w": w.grad}

    report = directional_check(loss_fn, {"w": rng.standard_normal((3, 4))}, directions=4, seed=1)
    assert report.passed, report


def test_sum_axes():
    check_op(lambda a: ad.tsum(ad.mul(ad.tsum(a, axis=0), ad.tsum(a, axis=0))), [(3, 4)])
    check_op(lambda a: ad.tsum(ad.mul(ad.tsum(a, axis=1, keepdims=True), a)), [(3, 4)])


def test_log():
    rng = make_rng(8)
    x = np.abs(rng.standard_normal((4,))) + 0.5
    t = ad.Tensor(x.copy(), requires_grad=True)
    out = ad.tsum(ad.mul(ad.log(t), ad.log(t)))
    out.backward()
    expected = numeric_grad(lambda v: float(np.sum(np.log(v) ** 2)), x.copy())
    assert np.max(np.abs(t.grad - expected)) < 1e-6


def test_floor_at_gradient_mask():
    x = np.array([-1.0, 0.5, 2.0])
    t = ad.Tensor(x, requires_grad=True)
    out = ad.tsum(ad.floor_at(t, 0.0))
    out.backward()
    assert np.array_equal(out.data, np.array(2.5))
    assert np.array_equal(t.grad, [0.0, 1.0, 1.0])


def test_take_scatter_accumulates():
    t = ad.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    out = ad.tsum(ad.take(t, [0, 0, 2]))
    out.backward()
    assert np.array_equal(t.grad, [2.0, 0.0, 1.0])
    # the same columns of every row, a repeated column accumulating
    m = ad.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    cols = ad.take(m, [3, 1, 3], axis=-1)
    assert np.array_equal(cols.data, m.data[:, [3, 1, 3]])
    weights = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0], [64.0, 128.0, 256.0]])
    ad.tsum(ad.mul(cols, ad.constant(weights))).backward()
    assert np.array_equal(m.grad, [[0.0, 2.0, 0.0, 5.0],
                                   [0.0, 16.0, 0.0, 40.0],
                                   [0.0, 128.0, 0.0, 320.0]])


def test_softmax_jacobian():
    check_op(lambda a: ad.tsum(ad.mul(ad.softmax(a, axis=1),
                                      ad.constant(np.arange(12.0).reshape(3, 4)))),
             [(3, 4)])
    check_op(lambda a: ad.tsum(ad.mul(ad.softmax(a, axis=-1),
                                      ad.constant(np.array([3.0, -1.0, 2.0])))),
             [(3,)])


def test_logsumexp_backward_is_softmax():
    rng = make_rng(4)
    x = rng.standard_normal(6)
    t = ad.Tensor(x.copy(), requires_grad=True)
    ad.logsumexp(t).backward()
    e = np.exp(x - x.max())
    assert np.max(np.abs(t.grad - e / e.sum())) < 1e-12
    # 2-D: one value per row, each row's gradient its own softmax
    x = 10.0 * rng.standard_normal((3, 5))
    t = ad.Tensor(x.copy(), requires_grad=True)
    out = ad.logsumexp(t)
    assert out.data.shape == (3,)
    assert np.max(np.abs(out.data - np.log(np.exp(x).sum(axis=-1)))) < 1e-12
    seed = np.array([1.0, -2.0, 0.5])
    out.backward(seed=seed)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert np.max(np.abs(t.grad - seed[:, None] * e / e.sum(axis=-1, keepdims=True))) < 1e-12


def test_gradient_accumulates_across_reuse():
    t = ad.Tensor(np.array([2.0]), requires_grad=True)
    out = ad.add(ad.mul(t, t), ad.mul(t, 3.0))  # x^2 + 3x -> 2x + 3 = 7
    out.backward(seed=np.array([1.0]))
    assert np.allclose(t.grad, [7.0])


def test_constants_carry_no_grad():
    c = ad.constant(np.ones(3))
    t = ad.Tensor(np.ones(3), requires_grad=True)
    ad.tsum(ad.mul(c, t)).backward()
    assert c.grad is None
    assert np.array_equal(t.grad, np.ones(3))
    c.backward()  # a constant root has no gradient to seed
    assert c.grad is None


@pytest.mark.parametrize("leaf_shape,const_shape,leaf_first", [
    ((3, 4), (4, 5), True), ((3, 4), (5, 3), False),
    ((7, 11), (3, 5, 11), True), ((11, 13), (3, 5, 11), False)])
def test_matmul_backward_skips_constant_operands(monkeypatch, leaf_shape, const_shape,
                                                 leaf_first):
    # one gradient product per backward: none for the constant operand. A
    # batched right operand is a transposed view (as V' is); a 2-D leaf's
    # gradient sums over the batch.
    rng = make_rng(9)
    leaf = ad.Tensor(rng.standard_normal(leaf_shape), requires_grad=True)
    c = rng.standard_normal(const_shape)
    const = ad.constant(np.swapaxes(c, -1, -2) if leaf_first and c.ndim == 3 else c)
    out = ad.matmul(leaf, const) if leaf_first else ad.matmul(const, leaf)
    g = rng.standard_normal(out.shape)
    delivered = _delivered(monkeypatch)
    out._backward(g)
    assert len(delivered) == 1 and delivered[0] is leaf
    x, y = (leaf.data, const.data) if leaf_first else (const.data, leaf.data)
    expected = (_unbatched(g @ np.swapaxes(y, -1, -2), x.shape) if leaf_first
                else _unbatched(np.swapaxes(x, -1, -2) @ g, y.shape))
    assert np.allclose(leaf.grad, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("op,leaf_first", [(op, first) for op in ("add", "sub", "mul")
                                            for first in (True, False)])
def test_elementwise_backward_skips_constant_operand(monkeypatch, op, leaf_first):
    # one gradient per backward, the leaf's, by the direct formula; the
    # constant broadcasts against the leaf
    rng = make_rng(10)
    leaf = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    const = ad.constant(rng.standard_normal((4,)))
    out = getattr(ad, op)(*((leaf, const) if leaf_first else (const, leaf)))
    g = rng.standard_normal(out.shape)
    delivered = _delivered(monkeypatch)
    out._backward(g)
    assert delivered == [leaf]
    sign = -1.0 if op == "sub" and not leaf_first else 1.0
    expected = g * const.data if op == "mul" else sign * g
    assert np.array_equal(leaf.grad, expected)


@pytest.mark.parametrize("axis", [0, -1])
def test_take_backward_skips_constant_operand(monkeypatch, axis):
    # a gather of a constant is a constant; a gather of a leaf delivers one
    # gradient, g scattered back to the gathered entries (repeats accumulate)
    rng = make_rng(11)
    leaf = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    idx = [2, 0, 2]
    assert ad.take(ad.constant(leaf.data), idx, axis=axis)._backward is None
    out = ad.take(leaf, idx, axis=axis)
    g = rng.standard_normal(out.shape)
    delivered = _delivered(monkeypatch)
    out._backward(g)
    assert delivered == [leaf]
    expected = np.zeros((3, 4))
    for j, i in enumerate(idx):
        if axis == 0:
            expected[i] += g[j]
        else:
            expected[:, i] += g[:, j]
    assert np.array_equal(leaf.grad, expected)


def _delivered(monkeypatch) -> list:
    """The tensors `_accumulate` receives a gradient for, in order."""
    delivered = []
    accumulate = ad._accumulate
    monkeypatch.setattr(ad, "_accumulate", lambda t, grad: delivered.append(t) or
                        accumulate(t, grad))
    return delivered


def _unbatched(product, shape):
    return product.sum(axis=0) if product.ndim > len(shape) else product


def test_backward_drops_interior_grads():
    t = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = ad.mul(t, t)
    out = ad.tsum(y)
    out.backward()
    assert y.grad is None and out.grad is None
    assert np.array_equal(t.grad, [2.0, 4.0])
    out.backward()  # a second pass through the same graph adds d(out)/dt once more
    assert np.array_equal(t.grad, [4.0, 8.0])


def test_operands_of_one_node_get_their_own_grads():
    # add's backward hands the same g to both operands; each keeps a copy
    a = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = ad.Tensor(np.array([3.0, 4.0]), requires_grad=True)
    ad.add(a, b).backward()
    assert a.grad is not b.grad
    a.grad += 5.0
    assert np.array_equal(a.grad, [6.0, 6.0]) and np.array_equal(b.grad, [1.0, 1.0])


def test_data_stays_float64():
    assert ad.Tensor(np.float32([1, 2])).data.dtype == np.float64
