"""Autodiff engine: forward values, analytic gradients, graph mechanics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hypermil import autodiff as ad
from hypermil.errors import NumericalError, ShapeError


def _t(x, grad=True):
    return ad.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


# -- tensor basics -----------------------------------------------------------


def test_tensor_wraps_float64():
    t = ad.Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.shape == (2, 2)
    assert t.ndim == 2
    assert t.size == 4
    assert not t.requires_grad
    assert t.grad is None


def test_item_and_detach():
    t = _t([3.5])
    assert t.item() == 3.5
    d = t.detach()
    assert not d.requires_grad
    assert_array_equal(d.data, t.data)


def test_backward_requires_scalar_root():
    t = _t([1.0, 2.0])
    with pytest.raises(ShapeError):
        t.backward()


# -- forward values match numpy ----------------------------------------------


@pytest.mark.parametrize(
    "fn,npf,lo,hi",
    [
        (ad.exp, np.exp, -3.0, 3.0),
        (ad.log, np.log, 0.1, 5.0),
        (ad.sqrt, np.sqrt, 0.1, 5.0),
        (ad.tanh, np.tanh, -3.0, 3.0),
        (ad.sinh, np.sinh, -3.0, 3.0),
        (ad.cosh, np.cosh, -3.0, 3.0),
        (ad.acos, np.arccos, -0.99, 0.99),
        (ad.asin, np.arcsin, -0.99, 0.99),
        (ad.acosh, np.arccosh, 1.01, 5.0),
        (ad.neg, np.negative, -3.0, 3.0),
        (ad.absolute, np.abs, -3.0, 3.0),
    ],
)
def test_unary_forward(fn, npf, lo, hi):
    rng = np.random.default_rng(0)
    x = rng.uniform(lo, hi, size=(3, 4))
    out = fn(_t(x))
    assert_allclose(out.data, npf(x), rtol=1e-14, atol=0)


def test_binary_forward_and_operator_sugar():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3)) + 2.0
    ta, tb = _t(a), _t(b)
    assert_allclose((ta + tb).data, a + b, rtol=1e-15)
    assert_allclose((ta - tb).data, a - b, rtol=1e-15)
    assert_allclose((ta * tb).data, a * b, rtol=1e-15)
    assert_allclose((ta / tb).data, a / b, rtol=1e-15)
    assert_allclose(ad.maximum(ta, tb).data, np.maximum(a, b), rtol=1e-15)
    assert_allclose((2.0 + ta).data, 2.0 + a, rtol=1e-15)
    assert_allclose((ta - 1.5).data, a - 1.5, rtol=1e-15)
    assert_allclose((3.0 - ta).data, 3.0 - a, rtol=1e-15)
    assert_allclose((ta * 2.5).data, a * 2.5, rtol=1e-15)
    assert_allclose((ta / 2.0).data, a / 2.0, rtol=1e-15)
    assert_allclose((1.0 / tb).data, 1.0 / b, rtol=1e-15)
    assert_allclose((-ta).data, -a, rtol=1e-15)


def test_matmul_forward_and_shape_error():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    assert_allclose((_t(a) @ _t(b)).data, a @ b, rtol=1e-14)
    with pytest.raises(ShapeError):
        _t(a) @ _t(rng.normal(size=(3, 2)))
    with pytest.raises(ShapeError):
        _t(rng.normal(size=3)) @ _t(rng.normal(size=(3, 2)))


def test_incompatible_broadcast_raises():
    with pytest.raises(ShapeError):
        ad.add(_t(np.ones((2, 3))), _t(np.ones((4, 5))))


# -- hand-checked gradients ----------------------------------------------------


def test_add_mul_chain_gradients():
    # f = sum((a + b) * a) => df/da = 2a + b, df/db = a
    a, b = _t([1.0, 2.0, 3.0]), _t([4.0, 5.0, 6.0])
    ((a + b) * a).sum().backward()
    assert_allclose(a.grad, 2 * a.data + b.data, rtol=1e-15)
    assert_allclose(b.grad, a.data, rtol=1e-15)


def test_div_gradients():
    a, b = _t([1.0, 4.0]), _t([2.0, 8.0])
    (a / b).sum().backward()
    assert_allclose(a.grad, 1.0 / b.data, rtol=1e-15)
    assert_allclose(b.grad, -a.data / b.data**2, rtol=1e-15)


def test_fanout_accumulates():
    # f = a*a + a => df/da = 2a + 1
    a = _t([3.0])
    (a * a + a).sum().backward()
    assert_allclose(a.grad, [7.0])


def test_broadcast_gradient_unbroadcasts():
    a = _t(np.ones((2, 3)))
    b = _t(np.ones((1, 3)))
    (a * b).sum().backward()
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (1, 3)
    assert_allclose(b.grad, 2.0 * np.ones((1, 3)))


def test_fused_gradient_with_missing_axis_raises():
    # a (K,) gradient for a [1 x K] parent must not be summed and broadcast
    a = _t(np.arange(3.0).reshape(1, 3))
    out = ad.fused("bad_row", a.data * 2.0, (a,), lambda g: (2.0 * g[0],))
    with pytest.raises(ShapeError):
        out.sum().backward()
    # a gradient broadcast against the parent's size-1 axis still sums back
    b = _t(np.ones((1, 3)))
    wide = ad.fused("wide", np.ones((4, 3)), (b,), lambda g: (g,))
    wide.sum().backward()
    assert_array_equal(b.grad, [[4.0, 4.0, 4.0]])


def test_maximum_tie_goes_to_first():
    a, b = _t([1.0, 5.0, 2.0]), _t([1.0, 3.0, 7.0])
    ad.maximum(a, b).sum().backward()
    assert_array_equal(a.grad, [1.0, 1.0, 0.0])
    assert_array_equal(b.grad, [0.0, 0.0, 1.0])


def test_scalar_maximum_gradient():
    a = _t([-1.0, 0.5, 2.0])
    ad.scalar_maximum(a, 0.5).sum().backward()
    assert_array_equal(a.grad, [0.0, 1.0, 1.0])


def test_clip_zero_gradient_outside():
    a = _t([-2.0, 0.0, 2.0])
    ad.clip(a, -1.0, 1.0).sum().backward()
    assert_array_equal(a.grad, [0.0, 1.0, 0.0])
    assert_allclose(ad.clip(a, None, 1.0).data, [-2.0, 0.0, 1.0])
    assert_allclose(ad.clip(a, -1.0, None).data, [-1.0, 0.0, 2.0])


def test_clamped_acos_has_zero_not_nan_gradient():
    a = _t([1.0, 0.0])
    ad.acos(ad.clip(a, -1.0, 1.0)).sum().backward()
    assert np.all(np.isfinite(a.grad))
    assert a.grad[0] == 0.0


def test_tensor_max_tie_first_entry_wins():
    a = _t([[2.0, 7.0], [7.0, 1.0]])
    a.max().backward()
    assert_array_equal(a.grad, [[0.0, 1.0], [0.0, 0.0]])


def test_tensor_max_axis_gradient():
    a = _t([[1.0, 3.0], [5.0, 2.0]])
    a.max(axis=1).sum().backward()
    assert_array_equal(a.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_sum_mean_axis_keepdims():
    x = np.arange(6.0).reshape(2, 3)
    a = _t(x)
    out = a.sum(axis=0, keepdims=True)
    assert out.shape == (1, 3)
    out.sum().backward()
    assert_array_equal(a.grad, np.ones((2, 3)))
    b = _t(x)
    b.mean(axis=1).sum().backward()
    assert_allclose(b.grad, np.full((2, 3), 1.0 / 3.0))


def test_reshape_transpose_getitem():
    x = np.arange(6.0).reshape(2, 3)
    a = _t(x)
    a.reshape(3, 2).T[0].sum().backward()
    # row 0 of the transposed (2,3)->(3,2) reshape = flat elements 0, 2, 4
    g = np.zeros(6)
    g[[0, 2, 4]] = 1.0
    assert_array_equal(a.grad, g.reshape(2, 3))
    with pytest.raises(ShapeError):
        a.reshape(4, 2)


def test_getitem_repeated_indices_accumulate():
    a = _t([1.0, 2.0, 3.0])
    a[np.array([0, 0, 2])].sum().backward()
    assert_array_equal(a.grad, [2.0, 0.0, 1.0])


def test_concat_stack_where():
    a, b = _t([1.0, 2.0]), _t([3.0])
    ad.concat([a, b]).sum().backward()
    assert_array_equal(a.grad, [1.0, 1.0])
    assert_array_equal(b.grad, [1.0])

    c, d = _t([1.0, 2.0]), _t([3.0, 4.0])
    out = ad.stack([c, d], axis=0)
    assert out.shape == (2, 2)

    e, f = _t([1.0, 2.0]), _t([10.0, 20.0])
    ad.where(np.array([True, False]), e, f).sum().backward()
    assert_array_equal(e.grad, [1.0, 0.0])
    assert_array_equal(f.grad, [0.0, 1.0])
    with pytest.raises(ShapeError):
        ad.concat([_t(np.ones((2, 2))), _t(np.ones((2, 3)))], axis=0)


def test_broadcast_to_gradient_sums():
    a = _t([1.0, 2.0])
    ad.broadcast_to(a, (3, 2)).sum().backward()
    assert_array_equal(a.grad, [3.0, 3.0])
    with pytest.raises(ShapeError):
        ad.broadcast_to(_t(np.ones(3)), (2, 2))


def test_no_grad_blocks_graph():
    a = _t([1.0])
    with ad.no_grad():
        out = a * 2.0
    assert not out.requires_grad
    assert out._parents == ()
    # re-enabled afterwards
    out2 = a * 2.0
    assert out2.requires_grad


def test_nan_forward_raises_numerical_error():
    with pytest.raises(NumericalError):
        ad.log(_t([-1.0]))
    with pytest.raises(NumericalError):
        ad.sqrt(_t([-4.0]))
    with pytest.raises(NumericalError):
        ad.div(_t([0.0]), _t([0.0]))


def test_gradients_do_not_alias_upstream():
    a = _t([1.0, 2.0])
    out = ad.scalar_mul(a, 1.0)
    out.sum().backward()
    a.grad[0] = 99.0
    # mutating a.grad must not corrupt any other node's buffer
    b = _t([1.0, 2.0])
    ad.scalar_mul(b, 1.0).sum().backward()
    assert_array_equal(b.grad, [1.0, 1.0])


# -- finite-difference harness agreement -------------------------------------


def test_fd_check_on_composite():
    rng = np.random.default_rng(3)
    w = _t(rng.normal(size=(3, 3)))
    x = _t(rng.normal(size=(3, 2)))

    def f():
        h = ad.tanh(w @ x)
        return (h * h).mean() + ad.exp(h).sum() * 0.01

    err = ad.finite_difference_check(f, [w, x])
    assert err < 1e-7


def test_fd_check_transcendental_chain():
    rng = np.random.default_rng(4)
    p = _t(rng.uniform(0.2, 0.8, size=5))

    def f():
        return (
            ad.asin(p).sum()
            + ad.acos(p).sum()
            + ad.acosh(p + 1.5).sum()
            + ad.log(ad.cosh(p)).sum()
            + ad.sqrt(ad.sinh(p) + 2.0).sum()
        )

    assert ad.finite_difference_check(f, [p]) < 1e-8


def test_fd_check_several_roots_match_single_roots():
    rng = np.random.default_rng(5)
    w = _t(rng.normal(size=(3, 3)))

    def roots():
        return (ad.tanh(w).sum(), (w * w).mean(), ad.exp(w).sum() * 0.1)

    errs = ad.finite_difference_check(roots, [w])
    assert isinstance(errs, tuple) and len(errs) == 3
    for k in range(3):
        assert errs[k] == ad.finite_difference_check(lambda: roots()[k], [w])
    with pytest.raises(ShapeError):
        ad.finite_difference_check(lambda: (w.sum(), w * 2.0), [w])


def test_fd_check_rejects_bad_inputs():
    p = _t([1.0, 2.0])
    with pytest.raises(ValueError):
        ad.finite_difference_check(lambda: p.sum(), [p], h=0.0)
    with pytest.raises(ShapeError):
        ad.finite_difference_check(lambda: p * 2.0, [p])
