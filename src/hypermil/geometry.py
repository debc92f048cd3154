"""Lorentz-model hyperbolic geometry.

Points live on one sheet of the hyperboloid {u : <u,u>_H = -1/rho} with
curvature -rho (rho > 0). A point is stored as its space part u_s (a row of
`Points.space`) plus the derived time part u_t = sqrt(1/rho + |u_s|^2); the
time part is always recomputed from the space part, never stored as a free
parameter, so the manifold constraint holds by construction.

Every function is differentiable through the autodiff engine and operates on
batches: `Points` holds N points as rows, and pair functions (inner product,
geodesic, exterior angle, angle distance) return the full N x M matrix over
two batches.

Numerical guards: acos/asin arguments are clamped to [-1, 1] and acosh
arguments to >= 1 (zero gradient outside the domain); genuinely undefined
configurations (exterior angle at the origin or between coincident points)
raise GeometryError instead of being silently patched.

Fused primitives: `exp_map_origin` (both branches), `lorentz_inner`,
`geodesic`, `exterior_angle`, `angle_distance` and `half_aperture` are each
one autodiff node (`autodiff.fused`) whose forward and hand-derived backward
run in numpy. One numpy core is exposed over space arrays,
`masked_exterior_angle_core`: the exterior angles of chosen (apex, row)
pairs of one stacked array together with the apex rows' half-apertures, in
one pass. Its only caller is the fused loss node of `losses`; the public
primitives and it share the private numpy helpers below, so the
exterior-angle formula and its backward have one code path.
`Points.time` is a constant tensor, not a graph node: nothing
differentiates through it. The fused backwards are checked against
central differences by `tests/test_geometry.py`
(`test_geometry_gradients_finite_difference` at rho 0.5, 1 and 2 with a
point inside the half-aperture clamp, `test_exp_map_gradient_near_zero` on
the Taylor branch), by `test_losses_finite_difference` through the loss
assemblies, and by `training.gradient_check_suite` over the whole model.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, GeometryError, ShapeError

# sinh(t)/t switches to its Taylor expansion below this threshold
_TAYLOR_T = 1e-4


@dataclass(frozen=True)
class GeometryConfig:
    curvature: float = 1.0
    dim: int = 16
    epsilon: float = 1e-8

    def __post_init__(self):
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
        return ad.Tensor(_rows(self.space.data, self.cfg)[0])


def _as_matrix(x):
    x = x if isinstance(x, ad.Tensor) else ad.Tensor(x)
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


def _rows(s, cfg):
    """Time part and squared space norm of each row of the space array s."""
    sumsq = (s * s).sum(axis=1, keepdims=True)
    return np.sqrt(sumsq + 1.0 / cfg.curvature), sumsq


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


def _check_coincident(rho_inner, cfg):
    # rho * <u_i, v_j>_H is always <= -1 on the manifold
    if (-rho_inner - 1.0 < cfg.epsilon).any():
        raise GeometryError("exterior angle is undefined for coincident points")


def _aperture(n, cfg, alpha):
    """asin(min(2 alpha / (sqrt(rho) n), 1)) of a column of space norms, with
    a backward giving the gradient on the norms."""
    ratio = (2.0 * alpha / cfg.sqrt_curvature) / n
    arg = np.minimum(ratio, 1.0)
    d2 = 1.0 - arg * arg

    def backward(g):
        return -g * ad.guarded_rsqrt(d2 > 0.0, d2) * ratio / n

    return np.arcsin(arg), backward


# the rho<u,v>_H placed in the entries outside the mask of
# `masked_exterior_angle_core`: far enough below -1 that the square root and
# the arc cosine stay finite
_PLACEHOLDER_INNER = -2.0


def masked_exterior_angle_core(space, apex, mask, cfg, alpha):
    """Exterior angles theta(space[apex_a], space_j) on the pairs that the
    boolean [A x N] `mask` marks, and the half-aperture of every apex row,
    in one pass over the rows of the space array `space`.

    `apex` holds A distinct row indices. Time parts and norms are computed
    once for all N rows, and one exterior-angle matrix covers every
    (apex, row) pair. Entries outside the mask get a placeholder
    rho<u,v>_H before the square root and the arc cosine, so they hold a
    finite angle that means nothing; the caller must read only masked
    entries, and give the others zero gradient. GeometryError when an apex
    row sits at the origin, or when a masked pair is coincident; unmasked
    pairs are not checked.

    Returns (theta, aperture column, backward), backward(g_theta,
    g_aperture) giving the gradient on `space`.
    """
    t, sumsq = _rows(space, cfg)
    su, tu = space[apex], t[apex]
    nu = _norms(sumsq[apex], cfg, "exterior angle")
    rho_inner = _scale(_inner(su, tu, space, t), cfg.curvature)
    _check_coincident(rho_inner[mask], cfg)
    theta, saved = _exterior_forward(np.where(mask, rho_inner, _PLACEHOLDER_INNER),
                                     tu, nu, t)
    aperture, aperture_backward = _aperture(nu, cfg, alpha)

    def backward(g_theta, g_aperture):
        g_ri, g_tu, g_nu, g_tv = _exterior_backward(g_theta, saved)
        g_su, g_space = _inner_backward(_scale(g_ri, cfg.curvature), g_tu, g_tv,
                                        su, tu, space, t)
        g_nu = g_nu + aperture_backward(g_aperture)
        g_space[apex] += g_su + g_nu * (su / nu)
        return g_space

    return theta, aperture, backward


# -- fused primitives ---------------------------------------------------------


def lorentz_inner(u, v):
    """Pairwise Lorentzian inner products <u_i, v_j>_H as an N x M matrix.

    Each batch's time part follows its own configuration.
    """
    _check_dims(u, v, "lorentz_inner")
    su, sv = u.space.data, v.space.data
    tu, _ = _rows(su, u.cfg)
    tv, _ = _rows(sv, v.cfg)

    def backward(g):
        return _inner_backward(g, 0.0, 0.0, su, tu, sv, tv)

    return ad.fused("lorentz_inner", _inner(su, tu, sv, tv), (u.space, v.space),
                    backward)


def geodesic(u, v, cfg):
    """Pairwise geodesic distances sqrt(1/rho) * acosh(-rho <u,v>_H).

    The acosh argument is clamped to >= 1, with zero gradient at the clamp.
    """
    _check_dims(u, v, "geodesic")
    su, sv = u.space.data, v.space.data
    tu, _ = _rows(su, cfg)
    tv, _ = _rows(sv, cfg)
    arg = np.maximum(_scale(_inner(su, tu, sv, tv), -cfg.curvature), 1.0)
    d2 = arg * arg - 1.0

    def backward(g):
        g_inner = (g * ad.guarded_rsqrt(d2 > 0.0, d2)) * (
            -cfg.curvature / cfg.sqrt_curvature)
        return _inner_backward(g_inner, 0.0, 0.0, su, tu, sv, tv)

    data = _scale(np.arccosh(arg), 1.0 / cfg.sqrt_curvature)
    return ad.fused("geodesic", data, (u.space, v.space), backward)


def exterior_angle(u, v, cfg):
    """Pairwise exterior angles theta(u_i, v_j) in [0, pi].

    theta(u, v) = acos((v_t + u_t * rho<u,v>_H)
                       / (|u_s| * sqrt((rho<u,v>_H)^2 - 1))),
    the angle pi - angle(O, u, v) of the geodesic triangle through the
    origin. Undefined (GeometryError) when u sits at the origin or u == v.
    """
    _check_dims(u, v, "exterior angle")
    su, sv = u.space.data, v.space.data
    tu, sumsq_u = _rows(su, cfg)
    nu = _norms(sumsq_u, cfg, "exterior angle")
    tv, _ = _rows(sv, cfg)
    rho_inner = _scale(_inner(su, tu, sv, tv), cfg.curvature)
    _check_coincident(rho_inner, cfg)
    theta, saved = _exterior_forward(rho_inner, tu, nu, tv)

    def backward(g):
        g_ri, g_tu, g_nu, g_tv = _exterior_backward(g, saved)
        g_su, g_sv = _inner_backward(_scale(g_ri, cfg.curvature), g_tu, g_tv,
                                     su, tu, sv, tv)
        return g_su + g_nu * (su / nu), g_sv

    return ad.fused("exterior_angle", theta, (u.space, v.space), backward)


def angle_distance(u, v, cfg):
    """Pairwise angle distances theta(u_i,v_j) + theta(v_j,u_i) - pi.

    Both angle matrices come from one rho<u,v>_H matrix, the second through
    its transpose, so angle_distance(v, u) is exactly angle_distance(u, v).T.
    """
    _check_dims(u, v, "angle distance")
    su, sv = u.space.data, v.space.data
    tu, sumsq_u = _rows(su, cfg)
    tv, sumsq_v = _rows(sv, cfg)
    nu = _norms(sumsq_u, cfg, "angle distance")
    nv = _norms(sumsq_v, cfg, "angle distance")
    rho_inner = _scale(_inner(su, tu, sv, tv), cfg.curvature)
    _check_coincident(rho_inner, cfg)
    t_uv, saved_uv = _exterior_forward(rho_inner, tu, nu, tv)
    t_vu, saved_vu = _exterior_forward(rho_inner.T, tv, nv, tu)

    def backward(g):
        g_ri, g_tu, g_nu, g_tv = _exterior_backward(g, saved_uv)
        g_ri_t, g_tv_t, g_nv, g_tu_t = _exterior_backward(g.T, saved_vu)
        g_su, g_sv = _inner_backward(_scale(g_ri + g_ri_t.T, cfg.curvature),
                                     g_tu + g_tu_t, g_tv + g_tv_t,
                                     su, tu, sv, tv)
        return g_su + g_nu * (su / nu), g_sv + g_nv * (sv / nv)

    return ad.fused("angle_distance", t_uv + t_vu.T - np.pi, (u.space, v.space),
                    backward)


def half_aperture(u, cfg, alpha=0.1):
    """Entailment-cone half-aperture asin(2 alpha / (sqrt(rho) |u_s|)).

    One value per row. Points with |u_s| below the in-domain boundary
    2 alpha / sqrt(rho) get the maximal aperture pi/2 (argument clamped
    to 1, zero gradient); a point at the origin itself is an error.
    """
    s = u.space.data
    n = _norms(_rows(s, cfg)[1], cfg, "half aperture")
    aperture, backward = _aperture(n, cfg, alpha)
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
