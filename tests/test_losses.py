"""Loss functions: closed-form values, invariants, assembly, gradients."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypermil import autodiff as ad
from hypermil import geometry as geo
from hypermil import losses as ls
from hypermil.errors import ConfigError, GeometryError, ShapeError
from hypermil.model import EmbeddingSet, HierarchyLevel, text_level

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


def test_ama_nll_weights_give_weighted_row_sum():
    rng = np.random.default_rng(36)
    pos = rng.normal(size=5)
    negs = rng.normal(size=(5, 2))
    w = np.array([1.0, 0.5, 0.5, 0.25, 0.25])
    got = ls.ama_nll(pos, negs, tau=0.05, weights=w)
    per_row = [ls.ama_nll(pos[i], negs[i], tau=0.05).item() for i in range(5)]
    assert_allclose(got.item(), np.dot(w, per_row), rtol=1e-12)
    # uniform weights 1/n are the unweighted mean
    mean = ls.ama_nll(pos, negs, tau=0.05).item()
    uniform = ls.ama_nll(pos, negs, tau=0.05, weights=np.full(5, 0.2)).item()
    assert_allclose(uniform, mean, rtol=1e-12)
    with pytest.raises(ShapeError):
        ls.ama_nll(pos, negs, tau=0.05, weights=np.ones(4))


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
    # the patch, region and slide levels, in HierarchyLevel order
    text = _pts(np.concatenate([2.0 * dirs, 1.5 * dirs, 1.0 * dirs]))
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


def _looped_image_sets(emb, selections):
    return {
        HierarchyLevel.SLIDE: emb.slide,
        HierarchyLevel.REGION: geo.select(emb.regions,
                                          selections[HierarchyLevel.REGION]),
        HierarchyLevel.PATCH: geo.select(emb.patches,
                                         selections[HierarchyLevel.PATCH]),
    }


def _looped_ama_total(emb, label, selections):
    """ama_total with one [K x C] angle matrix and one pair of ama_nll
    terms per level, the reference for the stacked form."""
    n_classes = text_level(emb.text, HierarchyLevel.SLIDE).count
    others = [c for c in range(n_classes) if c != label]
    if not others:
        return ad.Tensor(0.0)
    total = ad.Tensor(0.0)
    for level, image in _looped_image_sets(emb, selections).items():
        if image.count == 0:
            continue
        text = text_level(emb.text, level)
        phi = geo.angle_distance(image, text, GEOM)
        phi_pos = phi[:, [label]]
        phi_neg = phi[:, others]
        refs = geo.angle_distance(geo.select(text, [label]),
                                  geo.select(text, others), GEOM)
        total = total + ls.ama_nll(refs.mean() - phi_pos, refs - phi_neg, CFG.tau)
        total = total + ls.ama_nll(phi_neg.mean(axis=1, keepdims=True) - phi_pos,
                                   phi_neg - refs, CFG.tau)
    return total


def _looped_shc_total(emb, label, selections):
    """shc_total with the region->patch term as one [1 x n_r] matrix per
    region and the text->image terms as one pair of matrices per level,
    the reference for the masked and stacked forms."""
    parts = [ls._ent_matrix(emb.slide, emb.regions, CFG, GEOM).mean()]
    per_region = [
        ls._ent_matrix(geo.select(emb.regions, [r]),
                       geo.select(emb.patches, np.arange(start, stop)), CFG, GEOM)
        for r, (start, stop) in enumerate(emb.region_slices)
    ]
    parts.append(ad.concat(per_region, axis=1).mean())
    n_classes = text_level(emb.text, HierarchyLevel.SLIDE).count
    diag = (np.arange(n_classes), np.arange(n_classes))
    for upper, lower in ((HierarchyLevel.SLIDE, HierarchyLevel.REGION),
                         (HierarchyLevel.REGION, HierarchyLevel.PATCH)):
        chain = ls._ent_matrix(text_level(emb.text, upper),
                               text_level(emb.text, lower), CFG, GEOM)
        parts.append(chain[diag].mean())
    others = [c for c in range(n_classes) if c != label]
    for level, image in _looped_image_sets(emb, selections).items():
        if image.count == 0:
            continue
        text = text_level(emb.text, level)
        parts.append(ls._ent_matrix(geo.select(text, [label]),
                                    image, CFG, GEOM).mean())
        if others:
            parts.append(ls._con_matrix(geo.select(text, others),
                                        image, CFG, GEOM).mean())
    total = ad.Tensor(0.0)
    for part in parts:
        total = total + part
    return total


def _equivalence_cases():
    """(name, embeddings, label, selections) for the stacked-versus-looped
    comparisons: collinear, violated, random, uneven regions, an empty
    patch selection, two classes (once with an active contradiction term)
    and one class."""
    rng = np.random.default_rng(35)
    violated = _collinear_embeddings()
    violated.slide = _pts([-2.5, 0.3])
    # the slide sits near the wrong class's ray: contradiction is active
    violated_two = _collinear_embeddings(n_classes=2)
    violated_two.slide = _pts([-2.5, 0.3])
    uneven = _random_embeddings(rng)
    uneven.region_slices = [(0, 1), (1, 4)]
    no_patch = dict(_full_selection())
    no_patch[HierarchyLevel.PATCH] = np.array([], dtype=int)
    partial = {
        HierarchyLevel.SLIDE: np.array([0]),
        HierarchyLevel.REGION: np.array([1]),
        HierarchyLevel.PATCH: np.array([3, 0]),
    }
    return [
        ("collinear", _collinear_embeddings(), 0, _full_selection()),
        ("violated", violated, 0, _full_selection()),
        ("random", _random_embeddings(rng), 1, _full_selection()),
        ("uneven", uneven, 2, partial),
        ("empty-patch", _random_embeddings(rng), 0, no_patch),
        ("two-class", _random_embeddings(rng, n_classes=2), 1, partial),
        ("two-class-violated", violated_two, 0, _full_selection()),
        ("one-class", _collinear_embeddings(n_classes=1), 0, _full_selection()),
    ]


def test_shc_total_masked_matches_region_loop():
    for name, emb, label, sel in _equivalence_cases():
        got = ls.shc_total(emb, label, sel, CFG, GEOM).item()
        want = _looped_shc_total(emb, label, sel).item()
        assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=name)


def test_ama_total_stacked_matches_level_loop():
    for name, emb, label, sel in _equivalence_cases():
        got = ls.ama_total(emb, label, sel, CFG, GEOM).item()
        want = _looped_ama_total(emb, label, sel).item()
        assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=name)


def _with_row(emb, level, row, space):
    """A copy of `emb` whose `level` batch ("patches", "regions", "slide" or
    "text") has row `row` replaced by the space part `space`."""
    batches = {name: getattr(emb, name).space.data.copy()
               for name in ("patches", "regions", "slide", "text")}
    batches[level][row] = space
    return EmbeddingSet(**{name: _pts(data) for name, data in batches.items()},
                        region_slices=emb.region_slices)


def test_assemblies_guard_the_coincident_pairs_they_read():
    rng = np.random.default_rng(37)
    sel = _full_selection()
    # region 0 on its own patch 1: read by the region-to-patch entailment
    emb = _random_embeddings(rng)
    emb = _with_row(emb, "regions", 0, emb.patches.space.data[1])
    for fn in (ls.shc_total, ls.total_loss):
        with pytest.raises(GeometryError, match="coincident"):
            fn(emb, 0, sel, CFG, GEOM)
    # the alignment terms read no (region, patch) pair
    assert_allclose(ls.ama_total(emb, 0, sel, CFG, GEOM).item(),
                    _looped_ama_total(emb, 0, sel).item(), rtol=1e-12, atol=0.0)
    # the slide-level label text on the slide: read by both families
    emb = _random_embeddings(rng)
    emb = _with_row(emb, "text", HierarchyLevel.SLIDE.value * 3 + 1,
                    emb.slide.space.data[0])
    for fn in (ls.ama_total, ls.shc_total, ls.total_loss):
        with pytest.raises(GeometryError, match="coincident"):
            fn(emb, 1, sel, CFG, GEOM)
    # an apex row at the origin
    emb = _with_row(_random_embeddings(rng), "slide", 0, 0.0)
    for fn in (ls.ama_total, ls.shc_total, ls.total_loss):
        with pytest.raises(GeometryError, match="origin"):
            fn(emb, 0, sel, CFG, GEOM)


def test_assemblies_skip_coincident_pairs_no_term_reads():
    # region 0 on patch 2, which belongs to region 1: no term reads that
    # pair, so it is neither guarded nor changes a value
    emb = _random_embeddings(np.random.default_rng(38))
    emb = _with_row(emb, "regions", 0, emb.patches.space.data[2])
    sel = _full_selection()
    with pytest.raises(GeometryError):
        geo.exterior_angle(emb.regions, emb.patches, GEOM)
    for fn, looped in ((ls.ama_total, _looped_ama_total),
                       (ls.shc_total, _looped_shc_total)):
        assert_allclose(fn(emb, 0, sel, CFG, GEOM).item(),
                        looped(emb, 0, sel).item(), rtol=1e-12, atol=0.0)
    want = (ls.cls_loss(emb, 0, CFG, GEOM).item()
            + CFG.lambda_a * _looped_ama_total(emb, 0, sel).item()
            + CFG.lambda_s * _looped_shc_total(emb, 0, sel).item())
    assert_allclose(ls.total_loss(emb, 0, sel, CFG, GEOM).item(), want, rtol=1e-12)


def _with_leaves(emb):
    """The same embeddings with every batch's space a leaf requiring grad."""
    leaf = lambda p: geo.Points(ad.Tensor(p.space.data.copy(), requires_grad=True),
                                p.cfg)
    return EmbeddingSet(
        patches=leaf(emb.patches), regions=leaf(emb.regions), slide=leaf(emb.slide),
        text=leaf(emb.text),
        region_slices=emb.region_slices,
    )


def _space_grads(fn, emb):
    leaves = _with_leaves(emb)
    out = fn(leaves)
    if out.requires_grad:
        out.backward()
    batches = [leaves.patches, leaves.regions, leaves.slide, leaves.text]
    return np.concatenate([
        np.zeros(p.space.shape) if p.space.grad is None else p.space.grad
        for p in batches
    ])


def test_stacked_assemblies_gradients_match_loops():
    for name, emb, label, sel in _equivalence_cases():
        for stacked, looped in ((ls.ama_total, _looped_ama_total),
                                (ls.shc_total, _looped_shc_total)):
            got = _space_grads(lambda e: stacked(e, label, sel, CFG, GEOM), emb)
            want = _space_grads(lambda e: looped(e, label, sel), emb)
            scale = np.abs(want).max()
            assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale,
                            err_msg=f"{name} {stacked.__name__}")


def _graph_size(root):
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_total_loss_graph_size_does_not_depend_on_levels():
    # 4 space leaves (slide, regions, patches, text), the slide-text select,
    # geodesic and cls_nll, one fused node for the alignment and hierarchy
    # terms and the sum: the same whichever levels have selected rows
    full = _full_selection()
    no_patch = dict(full)
    no_patch[HierarchyLevel.PATCH] = np.array([], dtype=int)
    slide_only = dict(no_patch)
    slide_only[HierarchyLevel.REGION] = np.array([], dtype=int)
    emb = _with_leaves(_random_embeddings(np.random.default_rng(34)))
    sizes = [_graph_size(ls.total_loss(emb, 0, sel, CFG, GEOM))
             for sel in (full, no_patch, slide_only)]
    assert sizes == [9, 9, 9]


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
    text = text_level(emb.text, HierarchyLevel.PATCH)
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
        text=sp(3 * n_classes, 0.4),
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
            # patch, region and slide text, in HierarchyLevel order
            text=geo.select(pts, [13, 14, 15, 10, 11, 12, 7, 8, 9]),
            region_slices=[(0, 2), (2, 4)],
        )

    no_patch = dict(sel)
    no_patch[HierarchyLevel.PATCH] = np.array([], dtype=int)
    for fn in (
        lambda: ls.cls_loss(build(), 0, CFG, GEOM),
        lambda: ls.ama_total(build(), 0, sel, CFG, GEOM),
        lambda: ls.shc_total(build(), 0, sel, CFG, GEOM),
        lambda: ls.total_loss(build(), 0, sel, CFG, GEOM),
        lambda: ls.ama_total(build(), 1, no_patch, CFG, GEOM),
        lambda: ls.shc_total(build(), 1, no_patch, CFG, GEOM),
    ):
        assert ad.finite_difference_check(fn, [x]) < 1e-4
