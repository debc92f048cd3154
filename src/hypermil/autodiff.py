"""Reverse-mode automatic differentiation over dense float64 arrays.

A dynamic (define-by-run) graph: every operation on `Tensor` records a
backward closure, and `Tensor.backward()` on a scalar root walks the graph
in reverse topological order, accumulating gradients additively across
fan-out. All math is double precision and runs in numpy.

The generic primitives are the glue the library needs: broadcasting
`add`, `sub` and `mul`, `scalar_mul`, `tensor_sum`, `tensor_mean`,
`reshape` and `getitem`; `as_tensor` turns any other value into a constant
leaf. The math itself lives in fused nodes (`fused`), each computing its
forward and hand-derived backward in numpy:
  * the hyperbolic primitives in `geometry` (`exp_map_origin`, `geodesic`,
    `exterior_angle`, `angle_distance`, `half_aperture`),
  * the two softmax NLLs, the two cone penalties and the per-slide node
    of the alignment and hierarchy terms (`cone_losses`, which `ama_total`,
    `shc_total` and `total_loss` build) in `losses`,
  * the class-text features, the adaptor MLP and the gated-attention
    pooling (`aggregate`) in `model`.

Conventions:
  * gradients accumulate into `Tensor.grad` (None until touched); the first
    contribution is copied so upstream buffers are never aliased,
  * any primitive, fused or not, whose forward value contains NaN raises
    NumericalError naming the primitive (`backend.has_nan`).
"""

import threading

import numpy as np

from .backend import has_nan
from .errors import NumericalError, ShapeError

_state = threading.local()


def grad_enabled():
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that disables graph recording on this thread."""

    def __enter__(self):
        self._prev = grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.grad_enabled = self._prev
        return False


def _as_array(data):
    if type(data) is np.ndarray and data.dtype == np.float64:
        return data
    return np.asarray(data, dtype=np.float64)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(np.asarray(self.data).item())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, grad={self.requires_grad})"

    # -- graph traversal ----------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar root, got shape {self.data.shape}"
            )
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scalar_mul(self, float(other))
        return mul(self, as_tensor(other))

    __rmul__ = __mul__

    def __getitem__(self, idx):
        return getitem(self, idx)

    # -- method forms of the shape/reduction primitives ----------------------

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def as_tensor(x):
    """`x` itself when it is a Tensor, else a constant float64 leaf of it."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, op):
    data = _as_array(data)
    if has_nan(data):
        raise NumericalError(f"{op} produced NaN in the forward pass")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    req = False
    if getattr(_state, "grad_enabled", True):
        for p in parents:
            if p.requires_grad:
                req = True
                break
    out.requires_grad = req
    out._backward = None
    out._parents = parents if req else ()
    out._op = op
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Sum a gradient broadcast against its operand back to `shape`.

    `g` may have extra leading axes and may be wider than `shape` on the
    operand's size-1 axes. Anything else, such as fewer axes than the
    operand, is a wrong gradient and raises ShapeError instead of being
    summed into the operand's shape.
    """
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra < 0 or any(n != 1 and m != n
                        for n, m in zip(shape, g.shape[extra:])):
        raise ShapeError(
            f"gradient of shape {g.shape} does not reduce to operand shape {shape}"
        )
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def fused(op, data, parents, backward):
    """One graph node for a forward the caller computed in numpy.

    `backward(g)` maps the output gradient to one gradient per parent, in
    the order of `parents`; a gradient broadcast against its parent is
    summed back to the parent's shape, and a gradient of any other shape
    raises ShapeError. Like every primitive, the node runs
    the NaN guard on `data` and records a backward only when a parent
    requires grad and recording is on.
    """
    out = _node(data, parents, op)
    if out.requires_grad:
        def bwd(g):
            for p, gp in zip(parents, backward(g)):
                _accum(p, _unbroadcast(gp, p.data.shape))
        out._backward = bwd
    return out


def _broadcast_forward(op, a, b, npf):
    try:
        return npf(a, b)
    except ValueError:
        raise ShapeError(
            f"{op}: incompatible operand shapes {a.shape} and {b.shape}"
        ) from None


# -- elementwise ops ----------------------------------------------------------


def add(a, b):
    data = _broadcast_forward("add", a.data, b.data, np.add)
    out = _node(data, (a, b), "add")
    if out.requires_grad:
        def bwd(g):
            _accum(a, _unbroadcast(g, a.data.shape))
            _accum(b, _unbroadcast(g, b.data.shape))
        out._backward = bwd
    return out


def sub(a, b):
    data = _broadcast_forward("sub", a.data, b.data, np.subtract)
    out = _node(data, (a, b), "sub")
    if out.requires_grad:
        def bwd(g):
            _accum(a, _unbroadcast(g, a.data.shape))
            _accum(b, _unbroadcast(-g, b.data.shape))
        out._backward = bwd
    return out


def mul(a, b):
    data = _broadcast_forward("mul", a.data, b.data, np.multiply)
    out = _node(data, (a, b), "mul")
    if out.requires_grad:
        def bwd(g):
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
            _accum(b, _unbroadcast(g * a.data, b.data.shape))
        out._backward = bwd
    return out


def scalar_mul(a, s):
    out = _node(a.data * s, (a,), "scalar_mul")
    if out.requires_grad:
        out._backward = lambda g: _accum(a, g * s)
    return out


def guarded_rsqrt(mask, denom_sq):
    """1/sqrt(denom_sq) where mask holds, 0 elsewhere.

    The derivative factor of acos/asin/acosh in the fused backwards: it
    never evaluates the sqrt on non-positive values, so no inf * 0 can
    reach a gradient.
    """
    safe = np.where(mask, denom_sq, 1.0)
    return np.where(mask, 1.0 / np.sqrt(safe), 0.0)


# -- shape / reduction ops ------------------------------------------------


def reshape(a, shape):
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(
            f"reshape: cannot reshape {a.data.shape} into {tuple(shape)}"
        ) from None
    out = _node(data, (a,), "reshape")
    if out.requires_grad:
        src = a.data.shape
        out._backward = lambda g: _accum(a, g.reshape(src))
    return out


def _normalize_axes(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _expand_reduced(g, in_shape, axes, keepdims):
    if axes is None:
        return np.broadcast_to(g, in_shape)
    if not keepdims:
        shape = list(in_shape)
        for ax in axes:
            shape[ax] = 1
        g = g.reshape(shape)
    return np.broadcast_to(g, in_shape)


def tensor_sum(a, axis=None, keepdims=False):
    axes = _normalize_axes(axis, a.data.ndim)
    out = _node(np.asarray(a.data.sum(axis=axes, keepdims=keepdims)), (a,), "sum")
    if out.requires_grad:
        src = a.data.shape
        out._backward = lambda g: _accum(a, _expand_reduced(g, src, axes, keepdims))
    return out


def tensor_mean(a, axis=None, keepdims=False):
    axes = _normalize_axes(axis, a.data.ndim)
    out = _node(np.asarray(a.data.mean(axis=axes, keepdims=keepdims)), (a,), "mean")
    if out.requires_grad:
        src = a.data.shape
        if axes is None:
            count = a.data.size
        else:
            count = 1
            for ax in axes:
                count *= src[ax]
        out._backward = lambda g: _accum(
            a, _expand_reduced(g, src, axes, keepdims) / count
        )
    return out


def getitem(a, idx):
    out = _node(np.asarray(a.data[idx]), (a,), "index")
    if out.requires_grad:
        src = a.data
        def bwd(g):
            buf = np.zeros_like(src)
            np.add.at(buf, idx, g)
            _accum(a, buf)
        out._backward = bwd
    return out


# -- verification harness ---------------------------------------------------


def finite_difference_check(f, params, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    `f` is a zero-argument callable returning a scalar Tensor, or a tuple of
    scalar Tensors (several roots), and reading the current values of
    `params` (leaf tensors perturbed in place). The error for one parameter
    component is |analytic - fd| / max(1, |fd|) with fd the central
    difference at step h.

    With several roots the result is a tuple holding one worst error per
    root. Each root takes its analytic gradient from its own call of `f` and
    backward pass; each perturbed value of a component is evaluated by one
    call of `f` that serves every root.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    params = list(params)
    first = f()
    several = isinstance(first, tuple)
    roots = _scalar_roots(first)
    analytic = []
    for k in range(len(roots)):
        if k:
            roots = _scalar_roots(f())
        for p in params:
            p.grad = None
        roots[k].backward()
        analytic.append([
            np.zeros(p.data.size) if p.grad is None else p.grad.reshape(-1).copy()
            for p in params
        ])

    def probe(index, component):
        try:
            values = [float(r.data) for r in _scalar_roots(f())]
        except NumericalError as exc:
            raise NumericalError(
                f"f produced NaN while perturbing parameter {index} "
                f"component {component}: {exc}"
            ) from exc
        if not all(np.isfinite(values)):
            raise NumericalError(
                f"f is not finite while perturbing parameter {index} "
                f"component {component}"
            )
        return values

    worst = [0.0] * len(roots)
    with no_grad():
        for i, p in enumerate(params):
            flat = p.data.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                f_plus = probe(i, j)
                flat[j] = orig - h
                f_minus = probe(i, j)
                flat[j] = orig
                for k, grads in enumerate(analytic):
                    fd = (f_plus[k] - f_minus[k]) / (2.0 * h)
                    err = abs(grads[i][j] - fd) / max(1.0, abs(fd))
                    if err > worst[k]:
                        worst[k] = err
    return tuple(worst) if several else worst[0]


def _scalar_roots(out):
    roots = out if isinstance(out, tuple) else (out,)
    if not roots or not all(isinstance(r, Tensor) and r.data.size == 1
                            for r in roots):
        raise ShapeError("finite_difference_check needs scalar-valued roots")
    return roots
