"""Reverse-mode automatic differentiation over dense float64 arrays.

A dynamic (define-by-run) graph: every operation on `Tensor` records a
backward closure, and `Tensor.backward()` on a scalar root walks the graph
in reverse topological order, accumulating gradients additively across
fan-out. All math is double precision and runs in numpy.

Every graph node, generic or fused, is one `fused(op, data, parents,
backward)` call: the caller computes the forward value in numpy and gives
a backward that returns one gradient per parent, and `fused` guards,
records and accumulates. The generic primitives are glue: broadcasting
`add`, `sub` and `mul`, `scalar_mul`, `tensor_sum`, `tensor_mean` and
`getitem`, with `Tensor`'s operators, indexing, `sum` and `mean` as their
method forms. The library composes them where no fused node is worth
writing, such as the aggregation probe of
`training.gradient_check_suite`, and so do the looped reference oracles
that the tests check the fused nodes against; `as_tensor` turns any other
value into a constant leaf. The math itself lives in named fused nodes,
each computing its forward and hand-derived backward in numpy:
  * the hyperbolic primitives in `geometry` (`exp_map_origin`, `geodesic`,
    `exterior_angle`, `angle_distance`, `half_aperture`),
  * the two softmax NLLs, the two cone penalties and the per-slide loss
    node in `losses` (`loss`, which `total_loss` builds over the slide's
    `ConePlan` with all three terms, `cls_loss` with the classification
    term alone, and `ama_total` and `shc_total` without it, over a plan
    they build on the spot),
  * the class-text features, the adaptor MLP, the gated-attention
    pooling (`aggregate`) and the stack of a slide's image and class-text
    tangents (`stack`) in `model`.

A default training step is 22 nodes: 14 leaves (the patch block and 13
trainable arrays), two adaptors (the patches and the class text), two
aggregates, the text features, the stack of the slide, region, patch and
class-text tangents, its one exp map (both built by `model.embed_slide`)
and the loss, whose one parent is that map. No view of the map's rows is
in the graph: the loss reads the space whole.

Conventions:
  * gradients accumulate into `Tensor.grad`. A parameter leaf of a
    `model.ModelParams` adds into its view of `ModelParams.grad`, which
    nothing rebinds; any other tensor's `grad` is None until touched, and
    its first contribution is copied so upstream buffers are never aliased,
  * any node whose forward value contains NaN raises NumericalError naming
    its op (`backend.has_nan`).
"""

import math
import threading

import numpy as np

from .backend import has_nan
from .errors import NumericalError, ShapeError, check_positive

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

    # -- method forms of the reduction primitives ----------------------------

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)


def as_tensor(x):
    """`x` itself when it is a Tensor, else a constant float64 leaf of it."""
    return x if isinstance(x, Tensor) else Tensor(x)


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
    """One graph node for a forward `data` the caller computed in numpy.

    Every node, generic or fused, is built here. The node runs the NaN
    guard on `data` and records a backward only when a parent requires
    grad and recording is on. `backward(g)` maps the output gradient to one
    gradient per parent, in the order of `parents`; it may give None for a
    parent that needs no gradient, and `fused` skips that parent, so a
    backward need not compute what would be thrown away. A gradient broadcast
    against its parent is summed back to the parent's shape, and a
    gradient of any other shape raises ShapeError. Each gradient is then
    added to its parent's `grad` in place; a parent whose `grad` is None
    takes a copy of it, so no buffer is shared between nodes.
    """
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
    if req:
        def bwd(g):
            for p, gp in zip(parents, backward(g)):
                if gp is None:
                    continue
                gp = _unbroadcast(gp, p.data.shape)
                if not p.requires_grad:
                    continue
                if p.grad is None:
                    p.grad = np.array(gp, dtype=np.float64, copy=True)
                else:
                    p.grad += gp
        out._backward = bwd
    return out


# -- elementwise ops ----------------------------------------------------------


def _broadcast(op, a, b, npf, backward):
    try:
        data = npf(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: incompatible operand shapes {a.data.shape} "
                         f"and {b.data.shape}") from None
    return fused(op, data, (a, b), backward)


def add(a, b):
    return _broadcast("add", a, b, np.add, lambda g: (g, g))


def sub(a, b):
    return _broadcast("sub", a, b, np.subtract, lambda g: (g, -g))


def mul(a, b):
    return _broadcast("mul", a, b, np.multiply,
                      lambda g: (g * b.data, g * a.data))


def scalar_mul(a, s):
    return fused("scalar_mul", a.data * s, (a,), lambda g: (g * s,))


def guarded_rsqrt(mask, denom_sq):
    """1/sqrt(denom_sq) where mask holds, 0 elsewhere.

    The derivative factor of acos/asin/acosh in the fused backwards: it
    never evaluates the sqrt on non-positive values, so no inf * 0 can
    reach a gradient.
    """
    safe = np.where(mask, denom_sq, 1.0)
    return np.where(mask, 1.0 / np.sqrt(safe), 0.0)


# -- reduction and indexing ops -------------------------------------------


def _reduce(op, a, axis, keepdims):
    """`a.sum` or `a.mean` (`op`) over `axis`, which numpy checks.

    The backward spreads `g` back over the reduced axes and divides it by
    the count of elements each output averages (1 for the sum).
    """
    src = a.data.shape
    try:
        data = getattr(a.data, op)(axis=axis, keepdims=keepdims)
    except ValueError:
        raise ShapeError(f"{op}: bad axis {axis} for shape {src}") from None
    axes = (range(len(src)) if axis is None
            else (np.atleast_1d(axis) % len(src)).tolist())
    kept = tuple(1 if i in axes else n for i, n in enumerate(src))
    count = math.prod(src[i] for i in axes) if op == "mean" else 1
    return fused(op, data, (a,),
                 lambda g: (np.broadcast_to(g.reshape(kept), src) / count,))


def tensor_sum(a, axis=None, keepdims=False):
    return _reduce("sum", a, axis, keepdims)


def tensor_mean(a, axis=None, keepdims=False):
    return _reduce("mean", a, axis, keepdims)


def getitem(a, idx):
    def backward(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return (buf,)
    return fused("index", a.data[idx], (a,), backward)


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
    call of `f` that serves every root. A step h that is not a positive
    finite number is a ConfigError, before `f` is called.
    """
    check_positive("step h", h)
    params = list(params)
    first = f()
    several = isinstance(first, tuple)
    roots = _scalar_roots(first)
    analytic = []
    for k in range(len(roots)):
        if k:
            roots = _scalar_roots(f())
        for p in params:  # in place: a parameter's grad is a view to keep
            if p.grad is not None:
                p.grad.fill(0.0)
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
