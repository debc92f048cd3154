"""Lorentz-model hyperbolic geometry.

Points live on one sheet of the hyperboloid {u : <u,u>_H = -1/rho} with
curvature -rho (rho > 0). A point is stored as its space part u_s (a row of
`Points.space`) plus the derived time part u_t = sqrt(1/rho + |u_s|^2); the
time part is always recomputed from the space part, never stored as a free
parameter, so the manifold constraint holds by construction.

Every function is differentiable through the autodiff engine and operates on
batches: `Points` holds N points as rows, and pair functions (geodesic,
exterior angle, angle distance) return the full N x M matrix over two
batches.

Numerical guards: acos/asin arguments are clamped to [-1, 1] and acosh
arguments to >= 1 (zero gradient outside the domain); genuinely undefined
configurations (exterior angle at the origin or between coincident points)
raise GeometryError instead of being silently patched.

Fused primitives: `exp_map_origin` (both branches), `geodesic`,
`exterior_angle`, `angle_distance` and `half_aperture` are each one
autodiff node (`autodiff.fused`) whose forward and hand-derived backward
run in numpy. Three numpy cores are public. Two read `Rows`, a space array
with the time part and squared norm of each of its rows (`rows` computes
them, row by row), so a caller reading the same rows several times
computes those once: `geodesic_core`, the geodesic distances of two
`Rows` with a backward, which `geodesic` wraps and `evaluation` calls
once per scored slide; and `exterior_angle_core`, the exterior angles
theta(u_i, v_j) of two `Rows`, optionally reading only the pairs at given
flat positions, with the origin and coincidence guards and a backward.
The third, `half_aperture_core`, is the half-aperture of a column of
space norms. The primitives compute the `Rows` of their arguments and
call the cores: `exterior_angle` is one call of `exterior_angle_core` and
`angle_distance` two, theta(u, v) and theta(v, u). The fused loss node of
`losses` computes the `Rows` of its stacked rows once, and makes one
`geodesic_core` call and one `exterior_angle_core` call over them, on the
flat positions of the slide's cone plan, whose returned norms go to
`half_aperture_core` as `half_aperture`'s do.
So the geodesic and exterior-angle formulas, their guards and their
backwards have one code path.
`Points.time` is a constant tensor, not a graph node: nothing
differentiates through it. The fused backwards are checked against
central differences by `tests/test_geometry.py`
(`test_geometry_gradients_finite_difference` at rho 0.5, 1 and 2 with a
point inside the half-aperture clamp, `test_exp_map_gradient_near_zero` on
the Taylor branch). `exp_map_origin` and the three cores, as the loss
node runs them, are also checked by `test_losses_finite_difference`
through the loss assemblies and by `training.gradient_check_suite` over
the whole model.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, GeometryError, ShapeError, check_field_types

# sinh(t)/t switches to its Taylor expansion below this threshold
_TAYLOR_T = 1e-4


@dataclass(frozen=True)
class GeometryConfig:
    curvature: float = 1.0
    dim: int = 16
    epsilon: float = 1e-8

    def __post_init__(self):
        check_field_types(self)
        if not self.curvature > 0:
            raise ConfigError(f"curvature must be positive, got {self.curvature}")
        if self.dim < 2:
            raise ConfigError(f"dimension must be at least 2, got {self.dim}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def sqrt_curvature(self):
        return float(np.sqrt(self.curvature))


class Points:
    """A batch of manifold points; row i of `space` is point i.

    The fused primitives below read only `space` and recompute the time
    parts in numpy. `time` gives those time parts as a constant tensor.
    """

    __slots__ = ("space", "cfg")

    def __init__(self, space, cfg):
        self.space = space
        self.cfg = cfg

    @property
    def count(self):
        return self.space.shape[0]

    @property
    def dim(self):
        return self.space.shape[1]

    @property
    def time(self):
        """u_t = sqrt(1/rho + |u_s|^2), one value per row."""
        return ad.Tensor(rows(self.space.data, self.cfg).time)


def _as_matrix(x):
    x = ad.as_tensor(x)
    if x.ndim == 1:
        x = x.reshape(1, x.shape[0])
    if x.ndim != 2:
        raise ShapeError(f"expected points as rows of a matrix, got shape {x.shape}")
    return x


def from_space(space, cfg):
    return Points(_as_matrix(space), cfg)


def origin(cfg, n=1):
    return from_space(np.zeros((n, cfg.dim)), cfg)


def select(points, rows):
    """Points restricted to the given row indices."""
    return Points(points.space[np.asarray(rows)], points.cfg)


def _scale(t, s):
    return t if s == 1.0 else t * s


def exp_map_origin(x, cfg):
    """Map tangent vectors at the origin onto the manifold.

    space = x * sinh(sqrt(rho)|x|) / (sqrt(rho)|x|), with the ratio replaced
    by its Taylor expansion 1 + t^2/6 + t^4/120 for t = sqrt(rho)|x| below
    1e-4, so the map and its gradient stay finite at x = 0. One fused node;
    the backward uses d ratio / d t^2 = (t cosh t - sinh t) / (2 t^3), or
    1/6 + t^2/60 on the Taylor branch.
    """
    x = _as_matrix(x)
    xd = x.data
    t2 = _scale((xd * xd).sum(axis=1, keepdims=True), cfg.curvature)
    small = t2 < _TAYLOR_T * _TAYLOR_T
    t = np.sqrt(np.where(small, 1.0, t2))
    sinh_t = np.sinh(t)
    ratio = np.where(small, 1.0 + t2 * (1.0 / 6.0) + (t2 * t2) * (1.0 / 120.0),
                     sinh_t / t)

    def backward(g):
        slope = np.where(small, 1.0 / 6.0 + t2 * (1.0 / 60.0),
                         (t * np.cosh(t) - sinh_t) / (2.0 * t * t * t))
        radial = (2.0 * cfg.curvature) * slope * (g * xd).sum(axis=1, keepdims=True)
        return (g * ratio + xd * radial,)

    return Points(ad.fused("exp_map_origin", xd * ratio, (x,), backward), cfg)


def _check_dims(u, v, caller):
    if u.dim != v.dim:
        raise ShapeError(f"{caller}: dimension mismatch, {u.dim} versus {v.dim}")


# -- numpy cores of the fused primitives ---------------------------------------
#
# Each fused primitive reads the space parts, recomputes time parts (and
# norms) in numpy, and pushes its gradient back into the space parts alone:
# d u_t / d u_s = u_s / u_t and d |u_s| / d u_s = u_s / |u_s|.


class Rows(NamedTuple):
    """A space array with what the cores read of each of its rows besides:
    the time part and the squared space norm, as columns."""

    space: np.ndarray
    time: np.ndarray
    sumsq: np.ndarray

    def take(self, index):
        """The rows that `index`, a basic slice or an index array, selects."""
        return Rows(self.space[index], self.time[index], self.sumsq[index])


def rows(s, cfg):
    """The `Rows` of the space array s: u_t = sqrt(1/rho + |u_s|^2) and
    |u_s|^2 of each row, each computed row by row, so the statistics of a
    row do not depend on the rows around it."""
    sumsq = (s * s).sum(axis=1, keepdims=True)
    return Rows(s, np.sqrt(sumsq + 1.0 / cfg.curvature), sumsq)


def _norms(sumsq, cfg, caller):
    if (sumsq < cfg.epsilon * cfg.epsilon).any():
        raise GeometryError(f"{caller} is undefined for a point at the origin")
    return np.sqrt(sumsq)


def _inner(su, tu, sv, tv):
    return su @ sv.T - tu @ tv.T


def _inner_backward(g_inner, g_tu, g_tv, su, tu, sv, tv):
    """Space gradients from d/d<u,v>_H plus extra gradients on the time parts."""
    g_tu = g_tu - g_inner @ tv
    g_tv = g_tv - g_inner.T @ tu
    return g_inner @ sv + g_tu * (su / tu), g_inner.T @ su + g_tv * (sv / tv)


def _exterior_forward(rho_inner, tu, nu, tv):
    """theta = acos(clip(num / denom, -1, 1)) with what its backward reads."""
    q = np.sqrt(rho_inner * rho_inner - 1.0)
    num = tv.T + tu * rho_inner
    denom = nu * q
    c = num / denom
    cc = np.minimum(np.maximum(c, -1.0), 1.0)
    return np.arccos(cc), (rho_inner, tu, nu, q, c, cc, denom)


def _exterior_backward(g, saved):
    """Gradients on (rho<u,v>_H, u_t, |u_s|, v_t) of sum(g * theta)."""
    rho_inner, tu, nu, q, c, cc, denom = saved
    d2 = 1.0 - cc * cc
    g_num = -g * ad.guarded_rsqrt(d2 > 0.0, d2) / denom
    g_denom = -g_num * c
    g_rho_inner = g_num * tu + g_denom * nu * rho_inner / q
    g_tu = (g_num * rho_inner).sum(axis=1, keepdims=True)
    g_nu = (g_denom * q).sum(axis=1, keepdims=True)
    g_tv = g_num.sum(axis=0)[:, None]
    return g_rho_inner, g_tu, g_nu, g_tv


# the rho<u,v>_H placed in the entries `exterior_angle_core` does not read:
# far enough below -1 that the square root and the arc cosine stay finite
_PLACEHOLDER_INNER = -2.0


def exterior_angle_core(u, v, cfg, pairs=None):
    """Exterior angles theta(u_i, v_j) of the rows of two `Rows`.

    Returns (theta, norms, backward): the [N x M] angle matrix, the column
    of norms |u_s,i|, and backward(g_theta, g_norms=None) giving the
    gradients (g_su, g_sv) on the two space arrays of
    sum(g_theta * theta) + sum(g_norms * norms). GeometryError when a row
    of u sits at the origin, or when a pair is coincident. Given `pairs`,
    flat positions into the [N x M] matrix (repeats are harmless), only
    those pairs are checked for coincidence, and every other entry gets a
    placeholder rho<u,v>_H before the square root and the arc cosine, so it
    holds a finite angle that means nothing: the caller must read only the
    entries at `pairs`, and give the others zero gradient.
    """
    su, tu, sv, tv = u.space, u.time, v.space, v.time
    nu = _norms(u.sumsq, cfg, "exterior angle")
    rho_inner = _scale(_inner(su, tu, sv, tv), cfg.curvature)
    checked = rho_inner if pairs is None else rho_inner.take(pairs)
    # rho * <u_i, v_j>_H is always <= -1 on the manifold
    if (-checked - 1.0 < cfg.epsilon).any():
        raise GeometryError("exterior angle is undefined for coincident points")
    if pairs is not None:
        rho_inner = np.full(rho_inner.shape, _PLACEHOLDER_INNER)
        rho_inner.put(pairs, checked)
    theta, saved = _exterior_forward(rho_inner, tu, nu, tv)

    def backward(g_theta, g_norms=None):
        g_ri, g_tu, g_nu, g_tv = _exterior_backward(g_theta, saved)
        g_su, g_sv = _inner_backward(_scale(g_ri, cfg.curvature), g_tu, g_tv,
                                     su, tu, sv, tv)
        if g_norms is not None:
            g_nu = g_nu + g_norms
        return g_su + g_nu * (su / nu), g_sv

    return theta, nu, backward


def half_aperture_core(n, cfg, alpha):
    """asin(min(2 alpha / (sqrt(rho) n), 1)) of a column of space norms, with
    a backward giving the gradient on the norms."""
    ratio = (2.0 * alpha / cfg.sqrt_curvature) / n
    arg = np.minimum(ratio, 1.0)
    d2 = 1.0 - arg * arg

    def backward(g):
        return -g * ad.guarded_rsqrt(d2 > 0.0, d2) * ratio / n

    return np.arcsin(arg), backward


def geodesic_core(u, v, cfg):
    """Geodesic distances sqrt(1/rho) * acosh(-rho <u_i,v_j>_H) of the rows
    of two `Rows`.

    Returns (distances, backward): the [N x M] matrix, and backward(g)
    giving the gradients (g_su, g_sv) on the two space arrays of
    sum(g * distances). The acosh argument is clamped to >= 1, with zero
    gradient at the clamp.
    """
    su, tu, sv, tv = u.space, u.time, v.space, v.time
    arg = np.maximum(_scale(_inner(su, tu, sv, tv), -cfg.curvature), 1.0)

    def backward(g):
        d2 = arg * arg - 1.0
        g_inner = (g * ad.guarded_rsqrt(d2 > 0.0, d2)) * (
            -cfg.curvature / cfg.sqrt_curvature)
        return _inner_backward(g_inner, 0.0, 0.0, su, tu, sv, tv)

    return _scale(np.arccosh(arg), 1.0 / cfg.sqrt_curvature), backward


# -- fused primitives ---------------------------------------------------------


def geodesic(u, v, cfg):
    """Pairwise geodesic distances sqrt(1/rho) * acosh(-rho <u,v>_H).

    One call of `geodesic_core`; the acosh argument is clamped to >= 1, with
    zero gradient at the clamp.
    """
    _check_dims(u, v, "geodesic")
    data, backward = geodesic_core(rows(u.space.data, cfg), rows(v.space.data, cfg),
                                   cfg)
    return ad.fused("geodesic", data, (u.space, v.space), backward)


def exterior_angle(u, v, cfg):
    """Pairwise exterior angles theta(u_i, v_j) in [0, pi].

    theta(u, v) = acos((v_t + u_t * rho<u,v>_H)
                       / (|u_s| * sqrt((rho<u,v>_H)^2 - 1))),
    the angle pi - angle(O, u, v) of the geodesic triangle through the
    origin. Undefined (GeometryError) when u sits at the origin or u == v.
    """
    _check_dims(u, v, "exterior angle")
    theta, _, backward = exterior_angle_core(rows(u.space.data, cfg),
                                             rows(v.space.data, cfg), cfg)
    return ad.fused("exterior_angle", theta, (u.space, v.space), backward)


def angle_distance(u, v, cfg):
    """Pairwise angle distances theta(u_i,v_j) + theta(v_j,u_i) - pi.

    The two angle matrices are two `exterior_angle_core` calls, and IEEE
    addition commutes, so angle_distance(v, u) is exactly
    angle_distance(u, v).T.
    """
    _check_dims(u, v, "angle distance")
    ru, rv = rows(u.space.data, cfg), rows(v.space.data, cfg)
    t_uv, _, uv_backward = exterior_angle_core(ru, rv, cfg)
    t_vu, _, vu_backward = exterior_angle_core(rv, ru, cfg)

    def backward(g):
        g_su, g_sv = uv_backward(g)
        g_sv_vu, g_su_vu = vu_backward(g.T)
        return g_su + g_su_vu, g_sv + g_sv_vu

    return ad.fused("angle_distance", t_uv + t_vu.T - np.pi, (u.space, v.space),
                    backward)


def half_aperture(u, cfg, alpha=0.1):
    """Entailment-cone half-aperture asin(2 alpha / (sqrt(rho) |u_s|)).

    One value per row. Points with |u_s| below the in-domain boundary
    2 alpha / sqrt(rho) get the maximal aperture pi/2 (argument clamped
    to 1, zero gradient); a point at the origin itself is an error.
    """
    s = u.space.data
    n = _norms(rows(s, cfg).sumsq, cfg, "half aperture")
    aperture, backward = half_aperture_core(n, cfg, alpha)
    return ad.fused("half_aperture", aperture, (u.space,),
                    lambda g: (backward(g) * (s / n),))


def to_poincare_disk(u, cfg):
    """Project the first two space coordinates to the Poincare disk.

    p_i = u_{s,i} / (u_t + 1/sqrt(rho)) for i = 0, 1; plain numpy, used for
    embedding export only.
    """
    space = u.space.data
    time = u.time.data
    return space[:, :2] / (time + 1.0 / cfg.sqrt_curvature)
