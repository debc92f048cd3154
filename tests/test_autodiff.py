"""Autodiff engine: forward values, analytic gradients, graph mechanics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hypermil import autodiff as ad
from hypermil.backend import has_nan
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
    assert ad.as_tensor(t) is t
    c = ad.as_tensor([1, 2])
    assert c.data.dtype == np.float64 and not c.requires_grad


def test_item():
    t = _t([3.5])
    assert t.item() == 3.5


def test_backward_requires_scalar_root():
    t = _t([1.0, 2.0])
    with pytest.raises(ShapeError):
        t.backward()


# -- forward values match numpy ----------------------------------------------


def test_binary_forward_and_operator_sugar():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3)) + 2.0
    ta, tb = _t(a), _t(b)
    assert_array_equal((ta + tb).data, a + b)
    assert_array_equal((ta - tb).data, a - b)
    assert_array_equal((ta * tb).data, a * b)
    assert_array_equal((2.0 + ta).data, 2.0 + a)
    assert_array_equal((ta - 1.5).data, a - 1.5)
    assert_array_equal((ta * 2.5).data, a * 2.5)
    assert (ta + 1.0)._op == "add" and (ta - 1.5)._op == "sub"
    assert (ta * 2.5)._op == "scalar_mul"


def test_incompatible_broadcast_raises():
    for op in (ad.add, ad.sub, ad.mul):
        with pytest.raises(ShapeError, match=op.__name__):
            op(_t(np.ones((2, 3))), _t(np.ones((4, 5))))


# -- hand-checked gradients ----------------------------------------------------


def test_add_mul_chain_gradients():
    # f = sum((a + b) * a) => df/da = 2a + b, df/db = a
    a, b = _t([1.0, 2.0, 3.0]), _t([4.0, 5.0, 6.0])
    ((a + b) * a).sum().backward()
    assert_allclose(a.grad, 2 * a.data + b.data, rtol=1e-15)
    assert_allclose(b.grad, a.data, rtol=1e-15)


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


def test_fused_skips_a_none_gradient():
    # a backward may give None for a parent that needs no gradient
    a = _t(np.arange(3.0))
    const = ad.Tensor(np.ones(3))
    out = ad.fused("half", a.data * const.data, (const, a),
                   lambda g: (None, g * const.data))
    out.sum().backward()
    assert const.grad is None
    assert_array_equal(a.grad, np.ones(3))


def test_clamped_acos_has_zero_not_nan_gradient():
    # the acos/asin/acosh derivative factor at and beyond the clamp: zero,
    # with no sqrt or division evaluated on a non-positive value
    x = np.array([1.0, 1.5, -1.0, 0.6])
    d2 = 1.0 - x * x
    with np.errstate(all="raise"):
        factor = ad.guarded_rsqrt(d2 > 0.0, d2)
    assert_array_equal(factor, [0.0, 0.0, 0.0, 1.25])


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
    # an axis the array lacks, or one named twice, is not wrapped around
    for bad in (2, -3, (0, -2)):
        for reduce in (a.sum, a.mean):
            with pytest.raises(ShapeError, match=reduce.__name__):
                reduce(axis=bad)


def test_getitem_gradient():
    a = _t(np.arange(6.0).reshape(2, 3))
    a[:, ::2].sum().backward()
    # the columns 0 and 2 of both rows take the gradient, column 1 none
    assert_array_equal(a.grad, [[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])


def test_getitem_repeated_indices_accumulate():
    a = _t([1.0, 2.0, 3.0])
    a[np.array([0, 0, 2])].sum().backward()
    assert_array_equal(a.grad, [2.0, 0.0, 1.0])


def test_no_grad_blocks_graph():
    a = _t([1.0])
    with ad.no_grad():
        out = a * 2.0
    assert not out.requires_grad
    assert out._parents == ()
    # re-enabled afterwards
    out2 = a * 2.0
    assert out2.requires_grad


_NAN_CASES = (
    ("add", lambda: _t([np.inf]) + _t([-np.inf])),
    ("sub", lambda: _t([np.inf]) - _t([np.inf])),
    ("mul", lambda: _t([0.0]) * _t([np.inf])),
    ("scalar_mul", lambda: _t([np.inf]) * 0.0),
    ("sum", lambda: _t([np.inf, -np.inf]).sum()),
    ("mean", lambda: _t([np.inf, -np.inf]).mean(axis=0)),
    ("index", lambda: _t([np.nan, 1.0])[:1]),
    ("bad_log", lambda: ad.fused("bad_log", np.array([0.0, np.nan]),
                                 (_t([np.inf]),), lambda g: (g,))),
)


def test_nan_forward_raises_numerical_error():
    for op, build in _NAN_CASES:
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match=f"^{op} produced NaN"):
                build()


def test_has_nan_edge_cases():
    assert not has_nan(np.array([np.inf, -np.inf]))
    assert not has_nan(np.ones(5))
    assert not has_nan(np.empty((0, 3)))
    assert has_nan(np.array([1.0, np.nan]))
    assert has_nan(np.array([[np.inf, 0.0], [np.nan, -np.inf]]))


def test_infinite_forward_does_not_raise():
    out = _t([1.0, -1.0]) * _t([np.inf, np.inf])
    assert_array_equal(out.data, [np.inf, -np.inf])
    assert_array_equal((_t([-np.inf]) + 1.0).data, [-np.inf])


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


def _dot(y, w):
    """A fused root sum(y * w) that uses none of the primitives under test."""
    return ad.fused("dot", np.sum(y.data * w), (y,), lambda g: (g * w,))


_PRIMITIVE_CASES = {
    "add-row": (ad.add, [(1, 3), (2, 3)]),
    "add-scalar": (ad.add, [(), (2, 3)]),
    "sub-row": (ad.sub, [(2, 3), (1, 3)]),
    "sub-scalar": (ad.sub, [(2, 3), ()]),
    "mul-row": (ad.mul, [(1, 3), (2, 3)]),
    "mul-scalar": (ad.mul, [(), (2, 3)]),
    "scalar_mul": (lambda a: ad.scalar_mul(a, -2.5), [(2, 3)]),
    "getitem-slice": (lambda a: a[:, 1:3], [(2, 3)]),
    "getitem-repeated": (lambda a: a[np.array([0, 2, 0, 0])], [(3, 2)]),
}
for _axis in (None, 0, -1, (0, -1)):
    for _keep in (False, True):
        for _name in ("sum", "mean"):
            _PRIMITIVE_CASES[f"{_name}-{_axis}-{'keep' if _keep else 'drop'}"] = (
                lambda a, n=_name, ax=_axis, k=_keep:
                    getattr(a, n)(axis=ax, keepdims=k),
                [(2, 3, 4)],
            )


@pytest.mark.parametrize("case", list(_PRIMITIVE_CASES))
def test_generic_primitive_gradients(case):
    op, shapes = _PRIMITIVE_CASES[case]
    rng = np.random.default_rng(11)
    args = [_t(rng.normal(size=shape)) for shape in shapes]
    w = rng.normal(size=op(*args).shape)
    err = ad.finite_difference_check(lambda: _dot(op(*args), w), args)
    assert err < 1e-8



def _tanh(a):
    """A fused nonlinear node with its own backward, for the FD harness."""
    y = np.tanh(a.data)
    return ad.fused("tanh", y, (a,), lambda g: (g * (1.0 - y * y),))


def test_fd_check_on_composite():
    rng = np.random.default_rng(3)
    w = _t(rng.normal(size=(3, 3, 1)))
    x = _t(rng.normal(size=(1, 3, 2)))

    def f():
        # w @ x as a broadcast product summed over the inner axis
        h = _tanh((w * x).sum(axis=1))
        return (h * h).mean() + _tanh(h).sum() * 0.01

    err = ad.finite_difference_check(f, [w, x])
    assert err < 1e-7


def test_fd_check_transcendental_chain():
    rng = np.random.default_rng(4)
    p = _t(rng.uniform(0.2, 0.8, size=5))

    def f():
        t = _tanh(p)
        return (
            _tanh(p * t - 0.5).sum()
            + (_tanh(t * t - 1.5)[::2] * 3.0).mean()
            + _tanh(_tanh(p)).sum() + t.sum()
        )

    assert ad.finite_difference_check(f, [p]) < 1e-8


def test_fd_check_several_roots_match_single_roots():
    rng = np.random.default_rng(5)
    w = _t(rng.normal(size=(3, 3)))

    def roots():
        return (_tanh(w).sum(), (w * w).mean(), _tanh(w * w).sum() * 0.1)

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
