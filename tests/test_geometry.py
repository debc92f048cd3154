"""Hyperbolic geometry: manifold constraints, closed-form values, oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypermil import autodiff as ad
from hypermil import geometry as geo
from hypermil.errors import ConfigError, GeometryError, ShapeError

RHOS = (0.5, 1.0, 2.0)


def _cfg(rho=1.0, dim=4):
    return geo.GeometryConfig(curvature=rho, dim=dim)


def _pts(space, rho=1.0):
    space = np.atleast_2d(np.asarray(space, dtype=np.float64))
    return geo.from_space(space, _cfg(rho, space.shape[1]))


# -- plain-numpy oracles (no hypermil geometry code) ---------------------------


def _np_time(space, rho):
    return np.sqrt(1.0 / rho + (space * space).sum(axis=-1))


def _np_inner(u_s, v_s, rho):
    return (u_s * v_s).sum(-1) - _np_time(u_s, rho) * _np_time(v_s, rho)


def _np_dist(u_s, v_s, rho):
    arg = np.maximum(-rho * _np_inner(u_s, v_s, rho), 1.0)
    return np.arccosh(arg) / np.sqrt(rho)


def _oracle_exterior(u_s, v_s, rho):
    # interior angle at u of triangle (O, u, v) by the hyperbolic law of
    # cosines on curvature-normalized side lengths, then pi - interior
    o = np.zeros_like(u_s)
    a = _np_dist(o, u_s, rho)
    b = _np_dist(u_s, v_s, rho)
    c = _np_dist(o, v_s, rho)
    r = np.sqrt(rho)
    cos_int = (np.cosh(r * a) * np.cosh(r * b) - np.cosh(r * c)) / (
        np.sinh(r * a) * np.sinh(r * b)
    )
    return np.pi - np.arccos(np.clip(cos_int, -1.0, 1.0))


# -- config --------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        geo.GeometryConfig(curvature=0.0)
    with pytest.raises(ConfigError):
        geo.GeometryConfig(curvature=-1.0)
    with pytest.raises(ConfigError):
        geo.GeometryConfig(dim=1)
    with pytest.raises(ConfigError):
        geo.GeometryConfig(epsilon=0.0)
    with pytest.raises(ConfigError, match="curvature"):
        geo.GeometryConfig(curvature=float("inf"))


# -- closed-form values ----------------------------------------------------------


def test_time_from_space_values():
    assert_allclose(geo.from_space(np.zeros((1, 2)), _cfg(1.0, 2)).time.data, 1.0)
    assert_allclose(geo.from_space(np.zeros((1, 2)), _cfg(4.0, 2)).time.data, 0.5)
    got = geo.from_space(np.array([[3.0, 4.0]]), _cfg(1.0, 2)).time.data
    assert_allclose(got, 5.0990195135927845, rtol=0, atol=1e-15)


def test_geodesic_closed_forms():
    o = geo.origin(_cfg(1.0, 2))
    assert_allclose(geo.geodesic(o, o, _cfg(1.0, 2)).data, 0.0, atol=1e-15)
    # <u, v>_H = -2 for the two unit points
    u = _pts([1.0, 0.0])
    v = _pts([0.0, 1.0])
    assert_allclose(geo.geodesic(u, v, _cfg(1.0, 2)).data, np.arccosh(2.0),
                    rtol=1e-14)
    # from the origin: asinh(sqrt(rho) |w_s|) / sqrt(rho)
    w = _pts([[0.3, -0.2, 0.5]], rho=2.0)
    got = geo.geodesic(geo.origin(_cfg(2.0, 3)), w, _cfg(2.0, 3)).data
    assert_allclose(got, np.arcsinh(np.sqrt(2.0 * 0.38)) / np.sqrt(2.0),
                    rtol=1e-14)


def test_geodesic_dim_mismatch():
    with pytest.raises(ShapeError):
        geo.geodesic(_pts([1.0, 0.0]), _pts([1.0, 0.0, 0.0]), _cfg(1.0, 2))


def test_exp_map_zero_is_origin():
    for rho in RHOS:
        p = geo.exp_map_origin(np.zeros((1, 3)), _cfg(rho, 3))
        assert_allclose(p.space.data, 0.0)
        assert_allclose(p.time.data, 1.0 / np.sqrt(rho), rtol=1e-15)


def test_exp_map_unit_vector():
    p = geo.exp_map_origin(np.array([[1.0, 0.0]]), _cfg(1.0, 2))
    assert_allclose(np.linalg.norm(p.space.data), 1.1752011936438014, rtol=1e-15)
    assert_allclose(p.time.data, 1.5430806348152437, rtol=1e-14)


def test_half_aperture_values():
    cfg = _cfg(1.0, 2)
    at_boundary = _pts([0.2, 0.0])
    assert_allclose(geo.half_aperture(at_boundary, cfg).data, np.pi / 2, rtol=1e-15)
    inside = _pts([0.05, 0.0])  # below the boundary: clamp to max aperture
    assert_allclose(geo.half_aperture(inside, cfg).data, np.pi / 2, rtol=1e-15)
    farther = _pts([0.4, 0.0])
    assert_allclose(geo.half_aperture(farther, cfg).data, 0.5235987755982989,
                    rtol=1e-15)
    far = _pts([500.0, 0.0])
    assert geo.half_aperture(far, cfg).item() < 1e-3


# -- manifold-level properties ---------------------------------------------------


@pytest.mark.parametrize("rho", RHOS)
def test_manifold_constraint(rho):
    rng = np.random.default_rng(21)
    dirs = rng.normal(size=(1000, 5))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # keep sqrt(rho)*|x| under ~4.3 so time^2 stays well inside the range
    # where float64 can resolve the 1e-9 absolute tolerance at all
    x = dirs * rng.uniform(0.01, 3.0, size=(1000, 1))
    z = geo.exp_map_origin(x, _cfg(rho, 5))
    self_inner = (z.space.data**2).sum(axis=1) - z.time.data[:, 0] ** 2
    assert np.abs(self_inner + 1.0 / rho).max() < 1e-9


@pytest.mark.parametrize("rho", RHOS)
def test_distance_identity(rho):
    rng = np.random.default_rng(22)
    norms = np.logspace(-6, 1, 120)
    dirs = rng.normal(size=(120, 6))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    x = dirs * norms[:, None]
    cfg = _cfg(rho, 6)
    d = geo.geodesic(geo.origin(cfg, 1), geo.exp_map_origin(x, cfg), cfg).data[0]
    assert np.abs(d - norms).max() < 1e-9


def test_taylor_branch_continuity():
    # the two sinh(t)/t branches agree at the switch point
    t = geo._TAYLOR_T
    series = 1.0 + t**2 / 6.0 + t**4 / 120.0
    assert abs(series - np.sinh(t) / t) / (np.sinh(t) / t) < 1e-12
    cfg = _cfg(1.0, 2)
    below = geo.exp_map_origin(np.array([[t * 0.999, 0.0]]), cfg).space.data
    above = geo.exp_map_origin(np.array([[t * 1.001, 0.0]]), cfg).space.data
    assert_allclose(below * 1.001 / 0.999, above, rtol=1e-9)


def test_geodesic_basics():
    cfg = _cfg(1.0, 3)
    o = geo.origin(cfg, 1)
    assert_allclose(geo.geodesic(o, o, cfg).data, 0.0, atol=1e-12)
    x = np.array([[1.5, 0.0, 0.0]])
    assert_allclose(
        geo.geodesic(o, geo.exp_map_origin(x, cfg), cfg).data, 1.5, rtol=1e-12
    )
    rng = np.random.default_rng(23)
    u = geo.exp_map_origin(rng.normal(size=(4, 3)), cfg)
    v = geo.exp_map_origin(rng.normal(size=(5, 3)), cfg)
    duv = geo.geodesic(u, v, cfg).data
    dvu = geo.geodesic(v, u, cfg).data
    assert_allclose(duv, dvu.T, rtol=1e-13)
    assert duv.shape == (4, 5)
    assert np.all(duv >= 0)


# -- exterior angle ---------------------------------------------------------------


def test_exterior_angle_collinear():
    cfg = _cfg(1.0, 2)
    e1 = np.array([[1.0, 0.0]])
    u = geo.exp_map_origin(e1, cfg)
    v = geo.exp_map_origin(2.0 * e1, cfg)
    # v farther out on the same ray: angle 0; v between O and u: angle pi
    assert_allclose(geo.exterior_angle(u, v, cfg).data, 0.0, atol=1e-6)
    assert_allclose(geo.exterior_angle(v, u, cfg).data, np.pi, atol=1e-6)


@pytest.mark.parametrize("rho", RHOS)
def test_exterior_angle_matches_law_of_cosines(rho):
    rng = np.random.default_rng(24)
    cfg = _cfg(rho, 4)
    checked = 0
    while checked < 400:
        xu = rng.normal(size=(1, 4))
        xv = rng.normal(size=(1, 4))
        xu *= rng.uniform(0.1, 2.4) / np.linalg.norm(xu)
        xv *= rng.uniform(0.1, 2.4) / np.linalg.norm(xv)
        u, v = geo.exp_map_origin(xu, cfg), geo.exp_map_origin(xv, cfg)
        d = geo.geodesic(u, v, cfg).item()
        if not 0.1 <= d <= 5.0:
            continue
        want = float(_oracle_exterior(u.space.data[0], v.space.data[0], rho))
        if min(want, np.pi - want) < 1e-3:
            continue
        got = geo.exterior_angle(u, v, cfg).item()
        assert abs(got - want) / want < 1e-6
        checked += 1


def test_exterior_angle_degenerate_inputs():
    cfg = _cfg(1.0, 2)
    u = geo.exp_map_origin(np.array([[0.7, 0.2]]), cfg)
    with pytest.raises(GeometryError):
        geo.exterior_angle(geo.origin(cfg, 1), u, cfg)
    with pytest.raises(GeometryError):
        geo.exterior_angle(u, u, cfg)
    with pytest.raises(GeometryError):
        geo.half_aperture(geo.origin(cfg, 1), cfg)


def test_exterior_angle_core_pairs_keep_the_listed_entries():
    cfg = _cfg(2.0, 4)
    rng = np.random.default_rng(29)
    su = rng.normal(size=(5, 4))
    sv = rng.normal(size=(9, 4))
    mask = rng.random((5, 9)) < 0.4
    pairs = np.flatnonzero(mask)
    u, v = geo.rows(su, cfg), geo.rows(sv, cfg)
    full, full_norms, full_backward = geo.exterior_angle_core(u, v, cfg)
    # repeated and unsorted positions read the same entries
    repeated = rng.permutation(np.concatenate([pairs, pairs[::3]]))
    for listed in (pairs, repeated):
        part, part_norms, part_backward = geo.exterior_angle_core(u, v, cfg, listed)
        assert np.array_equal(part[mask], full[mask])
        assert np.array_equal(part_norms, full_norms)
        assert np.isfinite(part).all()
        # a gradient on the listed entries and the norms only
        g = np.where(mask, rng.normal(size=mask.shape), 0.0)
        g_norms = rng.normal(size=(5, 1))
        for got, want in zip(part_backward(g, g_norms), full_backward(g, g_norms)):
            assert np.array_equal(got, want)
    # only the listed pairs are checked for coincidence
    sv[2] = su[1]
    v = geo.rows(sv, cfg)
    mask[1, 2] = False
    geo.exterior_angle_core(u, v, cfg, np.flatnonzero(mask))
    mask[1, 2] = True
    with pytest.raises(GeometryError, match="coincident"):
        geo.exterior_angle_core(u, v, cfg, np.flatnonzero(mask))
    with pytest.raises(GeometryError, match="coincident"):
        geo.exterior_angle_core(u, v, cfg, np.array([1 * 9 + 2] * 3))


def test_primitives_run_the_exterior_angle_core(monkeypatch):
    # exterior_angle computes one angle matrix, angle_distance two: theta(u, v)
    # and theta(v, u)
    calls = []
    for name in ("_exterior_forward", "_exterior_backward"):
        def counted(*args, name=name, wrapped=getattr(geo, name)):
            calls.append(name)
            return wrapped(*args)

        monkeypatch.setattr(geo, name, counted)
    cfg = _cfg(1.0, 3)
    rng = np.random.default_rng(30)
    u = geo.exp_map_origin(ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True), cfg)
    v = geo.exp_map_origin(ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True), cfg)
    for fn, n in ((geo.exterior_angle, 1), (geo.angle_distance, 2)):
        calls.clear()
        fn(u, v, cfg).sum().backward()
        assert calls == ["_exterior_forward"] * n + ["_exterior_backward"] * n


# -- angle distance ----------------------------------------------------------------


def test_angle_distance_properties():
    cfg = _cfg(1.0, 4)
    rng = np.random.default_rng(25)
    u = geo.exp_map_origin(rng.normal(size=(6, 4)), cfg)
    v = geo.exp_map_origin(rng.normal(size=(7, 4)), cfg)
    phi_uv = geo.angle_distance(u, v, cfg).data
    phi_vu = geo.angle_distance(v, u, cfg).data
    assert np.array_equal(phi_uv, phi_vu.T)
    assert phi_uv.min() > -1e-9


def test_angle_distance_collinear_is_zero():
    cfg = _cfg(1.0, 2)
    e1 = np.array([[1.0, 0.0]])
    u = geo.exp_map_origin(e1, cfg)
    v = geo.exp_map_origin(2.0 * e1, cfg)
    assert_allclose(geo.angle_distance(u, v, cfg).data, 0.0, atol=1e-6)


def test_half_aperture_monotone_grid():
    cfg = _cfg(1.0, 2)
    # strictly decreasing across the unclamped domain, on an exhaustive grid
    norms = np.linspace(0.21, 8.0, 100)
    pts = geo.from_space(np.stack([norms, np.zeros(100)], axis=1), cfg)
    ap = geo.half_aperture(pts, cfg).data[:, 0]
    assert np.all(np.diff(ap) < 0)


# -- batching and helpers -----------------------------------------------------------


def test_select_and_caching():
    cfg = _cfg(1.0, 3)
    rng = np.random.default_rng(26)
    pts = geo.exp_map_origin(rng.normal(size=(5, 3)), cfg)
    sub = geo.select(pts, [0, 2])
    assert sub.count == 2
    assert_allclose(sub.space.data, pts.space.data[[0, 2]])


def test_pairwise_matches_scalar_loop():
    cfg = _cfg(2.0, 3)
    rng = np.random.default_rng(27)
    u = geo.exp_map_origin(rng.normal(size=(3, 3)), cfg)
    v = geo.exp_map_origin(rng.normal(size=(2, 3)), cfg)
    full = geo.exterior_angle(u, v, cfg).data
    for i in range(3):
        for j in range(2):
            one = geo.exterior_angle(
                geo.select(u, [i]), geo.select(v, [j]), cfg
            ).data
            assert_allclose(full[i, j], one[0, 0], rtol=1e-13)


def test_poincare_disk_projection():
    cfg = _cfg(1.0, 2)
    assert_allclose(geo.to_poincare_disk(geo.origin(cfg, 1), cfg), 0.0)
    rng = np.random.default_rng(28)
    pts = geo.exp_map_origin(rng.normal(size=(50, 2)) * 2.0, cfg)
    disk = geo.to_poincare_disk(pts, cfg)
    assert np.all(np.linalg.norm(disk, axis=1) < 1.0)


# -- differentiability ---------------------------------------------------------------


def test_geometry_gradients_finite_difference():
    rng = np.random.default_rng(29)
    # the third u row maps inside the half-aperture clamp |u_s| < 2 alpha /
    # sqrt(rho) for every rho tested, where the aperture is pi/2 with zero
    # gradient
    inside = np.array([[0.03, -0.02, 0.01]])
    xu = ad.Tensor(np.vstack([rng.normal(size=(2, 3)) * 0.8, inside]),
                   requires_grad=True)
    xv = ad.Tensor(rng.normal(size=(2, 3)) * 0.8, requires_grad=True)

    for rho in RHOS:
        cfg = _cfg(rho, 3)
        aperture = geo.half_aperture(geo.exp_map_origin(xu, cfg), cfg).data[:, 0]
        assert aperture[2] == np.pi / 2 and np.any(aperture < np.pi / 2)

        def f():
            u = geo.exp_map_origin(xu, cfg)
            v = geo.exp_map_origin(xv, cfg)
            return (
                geo.geodesic(u, v, cfg).sum()
                + geo.exterior_angle(u, v, cfg).sum()
                + geo.angle_distance(u, v, cfg).sum()
                + geo.half_aperture(u, cfg).sum()
            )

        assert ad.finite_difference_check(f, [xu, xv]) < 1e-6, rho


def test_exp_map_gradient_near_zero():
    cfg = _cfg(1.0, 2)
    x = ad.Tensor(np.array([[3e-5, -2e-5]]), requires_grad=True)

    def f():
        return geo.exp_map_origin(x, cfg).space.sum()

    assert ad.finite_difference_check(f, [x]) < 1e-6
