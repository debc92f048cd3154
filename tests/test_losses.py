"""Loss functions: closed-form values, invariants, assembly, gradients."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypermil import autodiff as ad
from hypermil import geometry as geo
from hypermil import losses as ls
from hypermil.errors import ConfigError, ShapeError
from hypermil.model import EmbeddingSet, HierarchyLevel

CFG = ls.LossConfig()
GEOM = geo.GeometryConfig(curvature=1.0, dim=2)


def _pts(space):
    space = np.atleast_2d(np.asarray(space, dtype=np.float64))
    return geo.from_space(space, geo.GeometryConfig(1.0, space.shape[1]))


# -- config -------------------------------------------------------------------


def test_loss_config_validation():
    for bad in (
        dict(tau=0.0),
        dict(alpha=-0.1),
        dict(beta_ent=0.0),
        dict(beta_con=1.5),
        dict(lambda_a=-1.0),
        dict(top_k=0),
    ):
        with pytest.raises(ConfigError):
            ls.LossConfig(**bad)


def test_alignment_batch_needs_negative():
    p = _pts([0.5, 0.0])
    empty = geo.select(_pts([[0.5, 0.0]]), np.array([], dtype=int))
    with pytest.raises(ShapeError):
        ls.AlignmentBatch(query=p, positive=p, negatives=empty)


# -- scalar cores: frozen closed forms ------------------------------------------


def test_ama_nll_equal_logits_is_ln2():
    got = ls.ama_nll(0.0, np.array([0.0]), tau=0.05)
    assert_allclose(got.item(), 0.6931471805599453, atol=1e-12)


def test_ama_nll_derived_value():
    # pos 0.2, |neg| 0.1, tau 0.05: -log(e^4 / (e^4 + e^2)) = log(1 + e^-2)
    got = ls.ama_nll(0.2, np.array([0.1]), tau=0.05)
    assert_allclose(got.item(), 0.1269280110429726, atol=1e-12)


def test_ama_nll_large_tau_limit():
    for n_neg in (1, 3, 7):
        got = ls.ama_nll(0.37, np.full(n_neg, -0.52), tau=1e9)
        assert_allclose(got.item(), np.log(1.0 + n_neg), rtol=1e-6)


def test_ama_nll_nonnegative_and_batched():
    rng = np.random.default_rng(31)
    pos = rng.normal(size=4)
    negs = rng.normal(size=(4, 3))
    got = ls.ama_nll(pos, negs, tau=0.05)
    assert got.item() >= 0.0
    per_row = [ls.ama_nll(pos[i], negs[i], tau=0.05).item() for i in range(4)]
    assert_allclose(got.item(), np.mean(per_row), rtol=1e-12)


def test_ama_nll_row_mismatch():
    with pytest.raises(ShapeError):
        ls.ama_nll(np.zeros(3), np.zeros((2, 4)), tau=0.05)


def test_ama_nll_extreme_logits_finite():
    got = ls.ama_nll(50.0, np.array([-80.0, 30.0]), tau=0.05)
    assert np.isfinite(got.item())


def test_ent_penalty_values():
    assert ls.ent_penalty(0.3, 0.5, 0.8).item() == 0.0
    assert_allclose(ls.ent_penalty(0.5, 0.5, 0.8).item(), 0.1, atol=1e-12)
    assert_allclose(
        ls.ent_penalty(1.0, 0.5, 0.8).item(), 1.630969097075427, atol=1e-12
    )


def test_con_penalty_values():
    assert ls.con_penalty(0.5, 0.3, 0.8).item() == 0.0
    assert_allclose(ls.con_penalty(0.5, 0.5, 0.8).item(), 0.1, atol=1e-12)
    assert_allclose(
        ls.con_penalty(0.3, 0.6, 0.8).item(), 0.9785814582452562, atol=1e-12
    )


def test_penalties_continuous_at_margin():
    # the hinge factor vanishes exactly at the boundary
    eps = 1e-9
    assert ls.ent_penalty(0.4, 0.5, 0.8).item() == 0.0
    assert ls.ent_penalty(0.4 + eps, 0.5, 0.8).item() < 1e-8
    assert ls.con_penalty(0.5, 0.4, 0.8).item() == 0.0
    assert ls.con_penalty(0.5 - eps, 0.4, 0.8).item() < 1e-8


def test_penalty_exp_clamp_keeps_values_finite():
    big_ent = ls.ent_penalty(3.0, 1e-7, 0.8).item()
    assert np.isfinite(big_ent) and big_ent > 1e100
    big_con = ls.con_penalty(0.0, 0.5, 0.8).item()
    assert np.isfinite(big_con) and big_con > 1e100


def test_cls_nll_values():
    assert_allclose(
        ls.cls_nll(np.array([1.0, 1.0]), 0).item(), np.log(2.0), atol=1e-12
    )
    assert_allclose(
        ls.cls_nll(np.array([1.0, 2.0]), 0).item(),
        0.31326168751822286,
        atol=1e-12,
    )
    assert ls.cls_nll(np.array([0.0, 10.0]), 0).item() < 1e-4


def test_cls_nll_probabilities_sum_to_one():
    rng = np.random.default_rng(32)
    d = rng.uniform(0.1, 3.0, size=5)
    losses = np.array([ls.cls_nll(d, y).item() for y in range(5)])
    assert_allclose(np.exp(-losses).sum(), 1.0, atol=1e-12)


def test_cls_nll_shift_invariance():
    d = np.array([0.7, 1.9, 0.4])
    a = ls.cls_nll(d, 1).item()
    b = ls.cls_nll(d + 3.7, 1).item()
    assert abs(a - b) < 1e-12


def test_cls_nll_label_range():
    with pytest.raises(ShapeError):
        ls.cls_nll(np.array([1.0, 2.0]), 2)
    with pytest.raises(ShapeError):
        ls.cls_nll(np.array([1.0, 2.0]), -1)


# -- point-level wrappers ---------------------------------------------------------


def test_semantic_similarity_values():
    v_pos = _pts([0.8, 0.1])
    v_neg = _pts([-0.2, 0.9])
    u_same = _pts([0.8, 0.1])
    got = ls.semantic_similarity(u_same, v_neg, (v_pos, v_neg), GEOM)
    assert abs(got.item()) < 1e-14

    # reference minus pair angle distance, against direct computation
    u = _pts([0.3, 0.5])
    ref = geo.angle_distance(v_pos, v_neg, GEOM).item()
    duv = geo.angle_distance(u, v_pos, GEOM).item()
    got = ls.semantic_similarity(u, v_pos, (v_pos, v_neg), GEOM)
    assert_allclose(got.item(), ref - duv, rtol=1e-12)


def test_ama_loss_single_negative_matches_nll():
    q = _pts([0.4, 0.3])
    pos = _pts([0.7, 0.2])
    neg = _pts([-0.5, 0.6])
    batch = ls.AlignmentBatch(query=q, positive=pos, negatives=neg)
    got = ls.ama_loss(batch, CFG, GEOM).item()
    ref = geo.angle_distance(pos, neg, GEOM).item()
    pos_sim = ref - geo.angle_distance(q, pos, GEOM).item()
    neg_sim = ref - geo.angle_distance(q, neg, GEOM).item()
    want = ls.ama_nll(pos_sim, np.array([neg_sim]), CFG.tau).item()
    assert_allclose(got, want, rtol=1e-12)


def test_ent_con_loss_average_pairs():
    u = _pts([[0.5, 0.0], [0.0, 0.7]])
    v = _pts([[1.2, 0.1], [-0.3, 1.5], [0.8, 0.8]])
    ent = ls.ent_loss(u, v, CFG, GEOM).item()
    theta = geo.exterior_angle(u, v, GEOM).data
    ap = geo.half_aperture(u, GEOM, CFG.alpha).data
    want = ls.ent_penalty(theta, np.broadcast_to(ap, theta.shape), CFG.beta_ent)
    assert_allclose(ent, want.data.mean(), rtol=1e-12)
    con = ls.con_loss(u, v, CFG, GEOM).item()
    want_c = ls.con_penalty(theta, np.broadcast_to(ap, theta.shape), CFG.beta_con)
    assert_allclose(con, want_c.data.mean(), rtol=1e-12)


# -- per-slide assemblies -----------------------------------------------------------


def _collinear_embeddings(n_classes=3):
    """All image levels on the label ray, each class's text chain on its own
    ray; rays separated by >= 90 degrees. Every entailment is inside the
    margin cone and every contradiction fully separated."""
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    label_dir = dirs[0]
    text = {
        HierarchyLevel.SLIDE: _pts(1.0 * dirs),
        HierarchyLevel.REGION: _pts(1.5 * dirs),
        HierarchyLevel.PATCH: _pts(2.0 * dirs),
    }
    return EmbeddingSet(
        patches=_pts(np.stack([4.0 * label_dir, 4.5 * label_dir,
                               5.0 * label_dir, 5.5 * label_dir])),
        regions=_pts(np.stack([3.0 * label_dir, 3.2 * label_dir])),
        slide=_pts(2.5 * label_dir),
        text=text,
        region_slices=[(0, 2), (2, 4)],
    )


def _full_selection():
    return {
        HierarchyLevel.SLIDE: np.array([0]),
        HierarchyLevel.REGION: np.array([0, 1]),
        HierarchyLevel.PATCH: np.array([0, 1, 2, 3]),
    }


def test_shc_total_zero_on_consistent_hierarchy():
    emb = _collinear_embeddings()
    got = ls.shc_total(emb, 0, _full_selection(), CFG, GEOM)
    assert got.item() == 0.0


def test_shc_total_positive_when_violated():
    emb = _collinear_embeddings()
    # move the slide embedding off the label ray, outside the text cone
    emb.slide = _pts([-2.5, 0.3])
    got = ls.shc_total(emb, 0, _full_selection(), CFG, GEOM)
    assert got.item() > 0.0


def test_shc_total_single_class_has_no_contradiction():
    emb = _collinear_embeddings(n_classes=1)
    got = ls.shc_total(emb, 0, _full_selection(), CFG, GEOM)
    assert got.item() == 0.0


def _looped_shc_total(emb, label, selections):
    """shc_total with the region->patch term as one [1 x n_r] matrix per
    region, the reference for the masked [R x N_p] form."""
    parts = [ls._ent_matrix(emb.slide, emb.regions, CFG, GEOM).mean()]
    per_region = [
        ls._ent_matrix(geo.select(emb.regions, [r]),
                       geo.select(emb.patches, np.arange(start, stop)), CFG, GEOM)
        for r, (start, stop) in enumerate(emb.region_slices)
    ]
    parts.append(ad.concat(per_region, axis=1).mean())
    n_classes = emb.text[HierarchyLevel.SLIDE].count
    diag = (np.arange(n_classes), np.arange(n_classes))
    for upper, lower in ((HierarchyLevel.SLIDE, HierarchyLevel.REGION),
                         (HierarchyLevel.REGION, HierarchyLevel.PATCH)):
        chain = ls._ent_matrix(emb.text[upper], emb.text[lower], CFG, GEOM)
        parts.append(chain[diag].mean())
    others = [c for c in range(n_classes) if c != label]
    for level, image in ls._image_sets(emb, selections).items():
        parts.append(ls._ent_matrix(geo.select(emb.text[level], [label]),
                                    image, CFG, GEOM).mean())
        if others:
            parts.append(ls._con_matrix(geo.select(emb.text[level], others),
                                        image, CFG, GEOM).mean())
    return sum(p.item() for p in parts)


def test_shc_total_masked_matches_region_loop():
    rng = np.random.default_rng(35)
    violated = _collinear_embeddings()
    violated.slide = _pts([-2.5, 0.3])
    uneven = _random_embeddings(rng)
    uneven.region_slices = [(0, 1), (1, 4)]
    for emb, label in ((_collinear_embeddings(), 0), (violated, 0),
                       (_random_embeddings(rng), 1), (uneven, 2)):
        got = ls.shc_total(emb, label, _full_selection(), CFG, GEOM).item()
        want = _looped_shc_total(emb, label, _full_selection())
        assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_ama_total_empty_patch_level_contributes_zero():
    rng = np.random.default_rng(33)
    emb = _random_embeddings(rng)
    sel_full = _full_selection()
    sel_nopatch = dict(sel_full)
    sel_nopatch[HierarchyLevel.PATCH] = np.array([], dtype=int)
    full = ls.ama_total(emb, 0, sel_full, CFG, GEOM).item()
    reduced = ls.ama_total(emb, 0, sel_nopatch, CFG, GEOM).item()
    assert reduced <= full + 1e-12
    assert reduced > 0.0
    # the removed amount equals the standalone patch-level terms
    img = geo.select(emb.patches, sel_full[HierarchyLevel.PATCH])
    text = emb.text[HierarchyLevel.PATCH]
    phi = geo.angle_distance(img, text, GEOM)
    refs = geo.angle_distance(
        geo.select(text, [0]), geo.select(text, [1, 2]), GEOM
    )
    img_term = ls.ama_nll(
        (refs.mean() - phi[:, [0]]), (refs - phi[:, [1, 2]]), CFG.tau
    )
    txt_term = ls.ama_nll(
        (phi[:, [1, 2]].mean(axis=1, keepdims=True) - phi[:, [0]]),
        (phi[:, [1, 2]] - refs),
        CFG.tau,
    )
    assert_allclose(full - reduced, img_term.item() + txt_term.item(), rtol=1e-9)


def _random_embeddings(rng, n_classes=3):
    g2 = geo.GeometryConfig(1.0, 2)
    sp = lambda n, scale: geo.exp_map_origin(rng.normal(size=(n, 2)) * scale, g2)
    return EmbeddingSet(
        patches=sp(4, 0.8),
        regions=sp(2, 0.6),
        slide=sp(1, 0.5),
        text={level: sp(n_classes, 0.4) for level in HierarchyLevel},
        region_slices=[(0, 2), (2, 4)],
    )


def test_total_loss_weights():
    rng = np.random.default_rng(34)
    emb = _random_embeddings(rng)
    sel = _full_selection()

    def with_weights(la, lam_s):
        cfg = ls.LossConfig(lambda_a=la, lambda_s=lam_s)
        return ls.total_loss(emb, 0, sel, cfg, GEOM).item()

    cls_only = with_weights(0.0, 0.0)
    assert_allclose(cls_only, ls.cls_loss(emb, 0, CFG, GEOM).item(), rtol=0)

    base = with_weights(1.0, 10.0)
    double_s = with_weights(1.0, 20.0)
    shc = ls.shc_total(emb, 0, sel, CFG, GEOM).item()
    assert_allclose(double_s - base, 10.0 * shc, rtol=1e-9)

    ama = ls.ama_total(emb, 0, sel, CFG, GEOM).item()
    assert_allclose(base, cls_only + ama + 10.0 * shc, rtol=1e-9)


# -- differentiability ----------------------------------------------------------------


def test_losses_finite_difference():
    # small radii keep the cone penalties off their exp blowup branch,
    # where h=1e-5 finite differences stop resolving the curvature
    rng = np.random.default_rng(31)
    x = ad.Tensor(rng.normal(size=(16, 2)) * 0.08, requires_grad=True)
    g2 = geo.GeometryConfig(1.0, 2)
    sel = _full_selection()

    def build():
        pts = geo.exp_map_origin(x, g2)
        return EmbeddingSet(
            patches=geo.select(pts, [0, 1, 2, 3]),
            regions=geo.select(pts, [4, 5]),
            slide=geo.select(pts, [6]),
            text={
                HierarchyLevel.SLIDE: geo.select(pts, [7, 8, 9]),
                HierarchyLevel.REGION: geo.select(pts, [10, 11, 12]),
                HierarchyLevel.PATCH: geo.select(pts, [13, 14, 15]),
            },
            region_slices=[(0, 2), (2, 4)],
        )

    for fn in (
        lambda: ls.cls_loss(build(), 0, CFG, GEOM),
        lambda: ls.ama_total(build(), 0, sel, CFG, GEOM),
        lambda: ls.shc_total(build(), 0, sel, CFG, GEOM),
        lambda: ls.total_loss(build(), 0, sel, CFG, GEOM),
    ):
        assert ad.finite_difference_check(fn, [x]) < 1e-4
