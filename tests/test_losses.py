"""Loss functions: closed-form values, invariants, assembly, gradients."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypermil import autodiff as ad
from hypermil import geometry as geo
from hypermil import losses as ls
from hypermil import training as tr
from hypermil.data import FeatureBag, SyntheticSpec, generate
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


def test_ama_weights_give_weighted_row_sum():
    # the per-row weights of the alignment core that the loss node uses
    rng = np.random.default_rng(36)
    pos = rng.normal(size=(5, 1))
    negs = rng.normal(size=(5, 2))
    w = np.array([1.0, 0.5, 0.5, 0.25, 0.25])
    got, _ = ls._ama(pos, negs, 0.05, w)
    per_row = [ls.ama_nll(pos[i], negs[i], tau=0.05).item() for i in range(5)]
    assert_allclose(got, np.dot(w, per_row), rtol=1e-12)
    # uniform weights 1/n are the unweighted mean
    mean = ls.ama_nll(pos, negs, tau=0.05).item()
    uniform, _ = ls._ama(pos, negs, 0.05, np.full(5, 0.2))
    assert_allclose(uniform, mean, rtol=1e-12)


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


# -- per-slide assemblies -----------------------------------------------------------


def _collinear_embeddings(n_classes=3):
    """All image levels on the label ray, each class's text chain on its own
    ray; rays separated by >= 90 degrees. Every entailment is inside the
    margin cone and every contradiction fully separated."""
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    label_dir = dirs[0]
    # the slide, its two regions and their patches
    radii = [2.5, 3.0, 3.2, 4.0, 4.5, 5.0, 5.5]
    # then the patch, region and slide text, in HierarchyLevel order
    space = np.concatenate([np.outer(radii, label_dir), 2.0 * dirs, 1.5 * dirs,
                            1.0 * dirs])
    return EmbeddingSet(_pts(space), np.array([2, 2]))


def _plan(sizes, n_classes, label, selections, lambda_a, lambda_s):
    """The cone plan of one slide: `cone_plan` of a batch of one."""
    (plan,) = ls.cone_plan(sizes, n_classes, [label],
                           {level: np.asarray(picked)[None]
                            for level, picked in selections.items()},
                           lambda_a, lambda_s)
    return plan


def _total_loss(emb, label, selections, cfg, geom):
    """`total_loss` over the slide's cone plan, built from `cfg`'s weights."""
    plan = _plan(emb.sizes, emb.text.count // len(HierarchyLevel), label,
                 selections, cfg.lambda_a, cfg.lambda_s)
    return ls.total_loss(emb, plan, cfg, geom)


def _spans(sizes):
    """(start, stop) patch rows of each region of the given sizes."""
    stops = np.cumsum(sizes)
    return list(zip((stops - sizes).tolist(), stops.tolist()))


def _full_selection():
    return {
        HierarchyLevel.SLIDE: np.array([0]),
        HierarchyLevel.REGION: np.array([0, 1]),
        HierarchyLevel.PATCH: np.array([0, 1, 2, 3]),
    }


def test_cone_plan_refuses_embeddings_of_another_layout():
    # the embeddings hold 2 regions of 2 patches and 3 classes
    emb = _random_embeddings(np.random.default_rng(39))
    sel = {HierarchyLevel.SLIDE: np.array([0]), HierarchyLevel.REGION: np.array([0]),
           HierarchyLevel.PATCH: np.array([0, 1])}
    # more regions, more patches, fewer classes, and as many rows in all
    # but three regions of one patch
    for sizes, n_classes in (([2, 2, 1], 3), ([3, 2], 3), ([2, 2], 2), ([1, 1, 1], 3)):
        plan = _plan(sizes, n_classes, 0, sel, CFG.lambda_a, CFG.lambda_s)
        with pytest.raises(ShapeError, match="do not fit a cone plan"):
            ls.total_loss(emb, plan, CFG, GEOM)
    plan = _plan(emb.sizes, 3, 0, sel, CFG.lambda_a, CFG.lambda_s)
    assert np.isfinite(ls.total_loss(emb, plan, CFG, GEOM).item())


def test_cone_plan_refuses_selections_outside_the_slide():
    # two regions of two patches: patch 4 would be the first text row and
    # patch -1 the last region row
    for level, picked in ((HierarchyLevel.PATCH, [4]), (HierarchyLevel.PATCH, [-1]),
                          (HierarchyLevel.REGION, [2])):
        sel = dict(_full_selection())
        sel[level] = np.array(picked)
        with pytest.raises(ShapeError, match=f"^{level.name.lower()} selection "
                                             rf"\[{picked[0]}\] is outside"):
            _plan([2, 2], 3, 0, sel, CFG.lambda_a, CFG.lambda_s)
    # in a batch, the first slide's selection at fault is the one named
    rows = {HierarchyLevel.REGION: np.array([[0, 1], [1, 0], [2, 0]]),
            HierarchyLevel.PATCH: np.array([[0, 1], [5, 0], [0, 6]])}
    with pytest.raises(ShapeError, match=r"^region selection \[2, 0\] is outside"):
        ls.cone_plan([2, 2], 3, [0, 1, 2], rows, CFG.lambda_a, CFG.lambda_s)
    rows[HierarchyLevel.REGION] = rows[HierarchyLevel.REGION][:2]
    with pytest.raises(ShapeError, match=r"^region selections of shape \(2, 2\) are "
                                         "not one row for each of 3 labels"):
        ls.cone_plan([2, 2], 3, [0, 1, 2], rows, CFG.lambda_a, CFG.lambda_s)


def test_cone_plan_refuses_labels_outside_the_classes():
    # at and above the class count, and below 0
    emb = _random_embeddings(np.random.default_rng(40))  # 3 classes
    sel = _full_selection()
    for label in (3, 7, -1):
        message = f"^label {label} is outside the 3 classes"
        with pytest.raises(ShapeError, match=message):
            _plan([3, 3], 3, label, sel, CFG.lambda_a, CFG.lambda_s)
        with pytest.raises(ShapeError, match=message):
            ls.ama_total(emb, label, sel, CFG, GEOM)
        with pytest.raises(ShapeError, match=message):
            ls.shc_total(emb, label, sel, CFG, GEOM)
    rows = {level: np.stack([picked, picked]) for level, picked in sel.items()}
    with pytest.raises(ShapeError, match="^label 3 is outside the 3 classes"):
        ls.cone_plan([2, 2], 3, [0, 3], rows, 0.0, 0.0)


def _flats(cones, phi):
    """Every flat position of a plan's `cones` and `phi`, in the order
    `ConePlan` documents: the cones' flat positions, then each phi set's
    theta(u, v) and theta(v, u)."""
    return np.concatenate([flat for flat, _, _ in cones]
                          + [f.ravel() for uv in phi for f in uv])


def _cone_plan_by_search(sizes, n_classes, label, selections, lambda_a, lambda_s):
    """`cone_plan` with the apex rows found by `np.unique` and each row's
    position among them by `np.searchsorted`: the oracle of the positions
    `cone_plan` works out by arithmetic."""
    n_regions, n_patches = len(sizes), int(np.sum(sizes))
    text0 = 1 + n_regions + n_patches
    n_rows = text0 + 3 * n_classes
    others = np.array([c for c in range(n_classes) if c != label], dtype=int)
    ama, shc = lambda_a != 0.0 and others.size > 0, lambda_s != 0.0
    regions = np.asarray(selections[HierarchyLevel.REGION], dtype=int)
    patches = np.asarray(selections[HierarchyLevel.PATCH], dtype=int)
    rows = np.concatenate([[0], 1 + regions, 1 + n_regions + patches])
    counts = np.array([1, regions.size, patches.size])
    levels = np.repeat([2, 1, 0], counts)
    weights = 1.0 / np.repeat(counts, counts)
    image = rows[:, None]
    block = text0 + levels[:, None] * n_classes
    pos, neg = block + label, block + others
    apex = np.unique(np.concatenate([np.arange(1 + n_regions), np.arange(text0, n_rows)]
                                    + ([rows] if ama else [])))

    def pairs(u, v):
        return np.searchsorted(apex, u) * n_rows + v

    cones = []
    if shc:
        chain = text0 + np.arange(n_classes)
        slide_text, region_text, patch_text = (chain + v * n_classes for v in (2, 1, 0))
        u = np.concatenate([np.zeros(n_regions, dtype=int),
                            1 + np.repeat(np.arange(n_regions), sizes),
                            slide_text, region_text, pos[:, 0]])
        v = np.concatenate([1 + np.arange(n_regions),
                            1 + n_regions + np.arange(n_patches),
                            region_text, patch_text, rows])
        terms = np.array([n_regions, n_patches, n_classes, n_classes])
        cones.append((pairs(u, v), np.searchsorted(apex, u),
                      np.concatenate([np.repeat(lambda_s / terms, terms),
                                      lambda_s * weights])))
        if others.size:
            cones.append((pairs(neg, image).ravel(), np.searchsorted(apex, neg).ravel(),
                          np.repeat(lambda_s / others.size * weights, others.size)))
    phi = tuple((pairs(a, b), pairs(b, a))
                for a, b in ((image, pos), (image, neg), (pos, neg))) if ama else ()
    return apex, cones, phi, lambda_a * weights


def test_cone_plan_positions_match_unique_and_searchsorted():
    def same(got, want):
        assert got.dtype == want.dtype and np.array_equal(got, want)

    bundle = generate(SyntheticSpec())
    n_classes = len(bundle.class_vectors)
    # the top-K selections of every default bag, and one selection with
    # repeated and unsorted rows
    cases = [(bag, {level: picked[b] for level, picked in selections.items()})
             for top_k in (1, 3, 8, 64)
             for selections in [tr.select_top_k(bundle.bags, bundle.class_vectors, top_k)]
             for b, bag in enumerate(bundle.bags)]
    cases.append((bundle.bags[0], {HierarchyLevel.SLIDE: np.array([0]),
                                   HierarchyLevel.REGION: np.array([2, 0, 2]),
                                   HierarchyLevel.PATCH: np.array([9, 1, 9, 4])}))
    for bag, sel in cases:
        for weights in ((1.0, 10.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)):
            plan = _plan(bag.sizes, n_classes, bag.label, sel, *weights)
            if plan.empty:
                assert weights == (0.0, 0.0)
                continue
            apex, cones, phi, ama_weights = _cone_plan_by_search(
                bag.sizes, n_classes, bag.label, sel, *weights)
            same(plan.apex, apex)
            same(plan.ama_weights, ama_weights)
            assert len(plan.cones) == len(cones) and len(plan.phi) == len(phi)
            for got, want in zip(plan.cones, cones):
                for g, w in zip(got, want):
                    same(g, w)
            for got, want in zip(plan.phi, phi):
                for g, w in zip(got, want):
                    same(g, w)
            # the flat positions, in the documented order, from the
            # oracle's arrays
            same(plan.flats, _flats(cones, phi))


def _cone_plan_reference(sizes, n_classes, label, selections, lambda_a, lambda_s):
    """The per-slide body `cone_plan` had before it built many slides' plans
    at once, kept as the looped oracle of the batched one."""
    n_regions, n_patches = len(sizes), int(np.sum(sizes))
    text0 = 1 + n_regions + n_patches
    stops = (1, 1 + n_regions, text0, text0 + len(HierarchyLevel) * n_classes)
    others = np.array([c for c in range(n_classes) if c != label], dtype=int)
    ama = lambda_a != 0.0 and others.size > 0
    shc = lambda_s != 0.0
    if not (ama or shc):
        return ls.ConePlan(label, stops)
    n_rows = stops[-1]
    regions = np.asarray(selections[HierarchyLevel.REGION], dtype=int)
    patches = np.asarray(selections[HierarchyLevel.PATCH], dtype=int)
    rows = np.concatenate([[0], 1 + regions, 1 + n_regions + patches])
    counts = np.array([1, regions.size, patches.size])
    levels = np.repeat([2, 1, 0], counts)
    weights = 1.0 / np.repeat(counts, counts)
    image = rows[:, None]
    block = text0 + levels[:, None] * n_classes
    pos = block + label
    neg = block + others
    picked_rows = np.zeros(n_patches, dtype=bool)
    if ama:
        picked_rows[patches] = True
    apex = np.concatenate([np.arange(1 + n_regions),
                           1 + n_regions + np.flatnonzero(picked_rows),
                           np.arange(text0, n_rows)])
    at = np.empty(n_rows, dtype=np.intp)
    at[apex] = np.arange(apex.size)

    def pairs(u, v):
        return at[u] * n_rows + v

    cones = []
    if shc:
        chain = text0 + np.arange(n_classes)
        slide_text, region_text, patch_text = (chain + v * n_classes for v in (2, 1, 0))
        u = np.concatenate([np.zeros(n_regions, dtype=int),
                            1 + np.repeat(np.arange(n_regions), sizes),
                            slide_text, region_text, pos[:, 0]])
        v = np.concatenate([1 + np.arange(n_regions),
                            1 + n_regions + np.arange(n_patches),
                            region_text, patch_text, rows])
        terms = np.array([n_regions, n_patches, n_classes, n_classes])
        cones.append((pairs(u, v), at[u],
                      np.concatenate([np.repeat(lambda_s / terms, terms),
                                      lambda_s * weights])))
        if others.size:
            cones.append((pairs(neg, image).ravel(), at[neg].ravel(),
                          np.repeat(lambda_s / others.size * weights, others.size)))
    phi = tuple((pairs(a, b), pairs(b, a))
                for a, b in ((image, pos), (image, neg), (pos, neg))) if ama else ()
    return ls.ConePlan(label, stops, apex, tuple(cones), phi, lambda_a * weights,
                       _flats(cones, phi))


def _entailment_pairs(plan):
    """{(u, v): weight} of the entailment pairs of a plan, as stacked rows."""
    flat, _, weights = plan.cones[0]
    n_rows = plan.stops[-1]
    pairs = list(zip(plan.apex[flat // n_rows].tolist(), (flat % n_rows).tolist()))
    assert len(set(pairs)) == len(pairs)
    return dict(zip(pairs, weights.tolist()))


@pytest.mark.parametrize("sizes, left_out", [
    ([1, 3, 7], [(1, 4)]),
    ([1], [(0, 1), (1, 2)]),
    ([5], [(0, 1)]),
    ([16] * 4, []),
], ids=["ragged-1-3-7", "one-region-one-patch", "one-region", "4x16"])
def test_cone_plan_leaves_out_exactly_the_pairs_the_layout_makes_coincide(
        sizes, left_out):
    # a one-region slide's slide over its region, and a one-patch region
    # over its patch: every other pair keeps its place and its weight, and
    # so do the contradiction and alignment pairs
    n_regions = len(sizes)
    sel = {HierarchyLevel.SLIDE: np.array([0]),
           HierarchyLevel.REGION: np.arange(n_regions)[::-1][:2],
           HierarchyLevel.PATCH: np.unique([0, sum(sizes) - 1])}
    for weights in ((0.0, 10.0), (1.0, 10.0)):
        got = _plan(sizes, 3, 1, sel, *weights)
        want = _cone_plan_reference(sizes, 3, 1, sel, *weights)
        got_pairs, all_pairs = _entailment_pairs(got), _entailment_pairs(want)
        assert sorted(set(all_pairs) - set(got_pairs)) == left_out
        assert got_pairs == {pair: w for pair, w in all_pairs.items()
                             if pair not in left_out}
        assert np.array_equal(got.apex, want.apex)
        for got_set, want_set in zip(got.cones[1:] + got.phi,
                                     want.cones[1:] + want.phi):
            for g, w in zip(got_set, want_set):
                assert np.array_equal(g, w)
        assert np.array_equal(got.ama_weights, want.ama_weights)


def _assert_same_plan(got, want):
    """Every field of two plans equal, array for array and dtype for dtype."""
    def same(g, w):
        assert (type(g) is type(w) and g.dtype == w.dtype and g.shape == w.shape
                and np.array_equal(g, w))

    assert type(got.label) is type(want.label) and got.label == want.label
    assert got.stops == want.stops and got.empty == want.empty
    if want.empty:
        return
    for name in ("apex", "ama_weights", "flats"):
        same(getattr(got, name), getattr(want, name))
    assert len(got.cones) == len(want.cones) and len(got.phi) == len(want.phi)
    for got_set, want_set in zip(got.cones + got.phi, want.cones + want.phi):
        assert len(got_set) == len(want_set)
        for g, w in zip(got_set, want_set):
            same(g, w)


WEIGHTS = ((0.0, 0.0), (1.0, 0.0), (0.0, 10.0), (1.0, 10.0))


@pytest.mark.parametrize("n_classes", [3, 2])
def test_cone_plan_of_many_slides_equals_the_per_slide_body(n_classes):
    # every bag of the default bundle (and of a two-class one) in one call,
    # under each weighting, with top-K from one region up to above the counts
    bundle = generate(SyntheticSpec(n_classes=n_classes))
    bags = bundle.bags
    labels = [bag.label for bag in bags]
    for top_k in (1, 8, 100):
        selections = tr.select_top_k(bags, bundle.class_vectors, top_k)
        for weights in WEIGHTS:
            plans = ls.cone_plan(bags[0].sizes, n_classes, labels, selections, *weights)
            assert len(plans) == len(bags)
            for b, (plan, bag) in enumerate(zip(plans, bags)):
                sel = {level: picked[b] for level, picked in selections.items()}
                _assert_same_plan(plan, _cone_plan_reference(
                    bag.sizes, n_classes, bag.label, sel, *weights))
    # repeated and unsorted rows, so that the slides have as many apex rows
    # as distinct selected patches: 3, 4 and 2
    selections = {HierarchyLevel.REGION: np.array([[2, 0, 2], [1, 1, 3], [0, 1, 2]]),
                  HierarchyLevel.PATCH: np.array([[9, 1, 9, 4], [0, 5, 63, 6],
                                                  [7, 7, 2, 2]])}
    for weights in WEIGHTS:
        plans = ls.cone_plan(bags[0].sizes, n_classes, labels[:3], selections, *weights)
        for b, (plan, bag) in enumerate(zip(plans, bags[:3], strict=True)):
            sel = {level: picked[b] for level, picked in selections.items()}
            _assert_same_plan(plan, _cone_plan_reference(
                bag.sizes, n_classes, bag.label, sel, *weights))


def test_training_plans_of_two_layouts_come_back_in_bag_order():
    # every other default bag re-cut into regions of 24, 8 and 32 patches
    bundle = generate(SyntheticSpec())
    bags = [bag if b % 2 else
            FeatureBag(bag.slide_id, bag.label, bag.site,
                       [bag.patches[:24], bag.patches[24:32], bag.patches[32:]])
            for b, bag in enumerate(bundle.bags)]
    for weights in WEIGHTS:
        cfg = ls.LossConfig(lambda_a=weights[0], lambda_s=weights[1])
        plans = tr._cone_plans(bags, bundle.class_vectors, cfg)
        assert len(plans) == len(bags)
        for plan, bag in zip(plans, bags, strict=True):
            sel = {level: picked[0] for level, picked in
                   tr.select_top_k([bag], bundle.class_vectors, cfg.top_k).items()}
            _assert_same_plan(plan, _cone_plan_reference(
                bag.sizes, 3, bag.label, sel, *weights))


def test_cone_plan_is_empty_without_weights():
    sel = _full_selection()
    # no term on: both weights zero, or only alignment with one class
    emb = _collinear_embeddings(n_classes=1)
    for n_classes, weights in ((3, (0.0, 0.0)), (1, (1.0, 0.0))):
        plan = _plan([2, 2], n_classes, 0, sel, *weights)
        assert plan.empty and plan.label == 0
        assert (ls.total_loss(emb, plan, CFG, GEOM).item()
                == ls.cls_loss(emb, 0, CFG, GEOM).item())
    assert not _plan([2, 2], 1, 0, sel, 0.0, 1.0).empty


def test_shc_total_zero_on_consistent_hierarchy():
    emb = _collinear_embeddings()
    got = ls.shc_total(emb, 0, _full_selection(), CFG, GEOM)
    assert got.item() == 0.0


def test_shc_total_positive_when_violated():
    emb = _collinear_embeddings()
    # move the slide embedding off the label ray, outside the text cone
    emb = _with_row(emb, "slide", 0, [-2.5, 0.3])
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


def _concat(tensors, axis):
    """A concatenation node, the glue of the looped references."""
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return ad.fused("concat", np.concatenate([t.data for t in tensors], axis=axis),
                    tuple(tensors), lambda g: np.split(g, bounds, axis=axis))


def _ent_matrix(u, v):
    """The entailment penalty of every (u_i, v_j) pair, from the public
    primitives."""
    theta = geo.exterior_angle(u, v, GEOM)
    aperture = geo.half_aperture(u, GEOM, CFG.alpha)
    return ls.ent_penalty(theta, aperture, CFG.beta_ent)


def _con_matrix(u, v):
    """The contradiction penalty of every (u_i, v_j) pair, from the public
    primitives."""
    theta = geo.exterior_angle(u, v, GEOM)
    aperture = geo.half_aperture(u, GEOM, CFG.alpha)
    return ls.con_penalty(theta, aperture, CFG.beta_con)


def _looped_shc_total(emb, label, selections):
    """shc_total with the region->patch term as one [1 x n_r] matrix per
    region and the text->image terms as one pair of matrices per level,
    the reference for the masked and stacked forms. The slide over the
    region of a one-region slide, and a one-patch region over its patch,
    coincide by the layout once pooled, and a point lies in its own cone:
    their penalty is a constant 0, counted in its term's mean, whatever
    the rows hold."""
    zero = ad.Tensor(np.zeros((1, 1)))
    parts = [_ent_matrix(emb.slide, emb.regions).mean() if len(emb.sizes) > 1
             else zero.mean()]
    per_region = [
        _ent_matrix(geo.select(emb.regions, [r]),
                    geo.select(emb.patches, np.arange(start, stop)))
        if stop - start > 1 else zero
        for r, (start, stop) in enumerate(_spans(emb.sizes))
    ]
    parts.append(_concat(per_region, axis=1).mean())
    n_classes = text_level(emb.text, HierarchyLevel.SLIDE).count
    diag = (np.arange(n_classes), np.arange(n_classes))
    for upper, lower in ((HierarchyLevel.SLIDE, HierarchyLevel.REGION),
                         (HierarchyLevel.REGION, HierarchyLevel.PATCH)):
        chain = _ent_matrix(text_level(emb.text, upper), text_level(emb.text, lower))
        parts.append(chain[diag].mean())
    others = [c for c in range(n_classes) if c != label]
    for level, image in _looped_image_sets(emb, selections).items():
        if image.count == 0:
            continue
        text = text_level(emb.text, level)
        parts.append(_ent_matrix(geo.select(text, [label]), image).mean())
        if others:
            parts.append(_con_matrix(geo.select(text, others), image).mean())
    total = ad.Tensor(0.0)
    for part in parts:
        total = total + part
    return total


def _equivalence_cases():
    """(name, embeddings, label, selections) for the stacked-versus-looped
    comparisons: collinear, violated, random, uneven regions (one of them a
    one-patch region), an empty patch selection, two classes (once with an
    active contradiction term), one class, one region, and one region of
    one patch. The rows of a one-patch region or a one-region slide do not
    coincide here, as pooling would make them: the left-out pairs are left
    out by the layout alone."""
    rng = np.random.default_rng(35)
    violated = _with_row(_collinear_embeddings(), "slide", 0, [-2.5, 0.3])
    # the slide sits near the wrong class's ray: contradiction is active
    violated_two = _with_row(_collinear_embeddings(n_classes=2), "slide", 0,
                             [-2.5, 0.3])
    uneven = EmbeddingSet(_random_embeddings(rng).space, np.array([1, 3]))
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
        ("one-region", _random_embeddings(rng, sizes=(4,)), 1,
         {HierarchyLevel.SLIDE: np.array([0]), HierarchyLevel.REGION: np.array([0]),
          HierarchyLevel.PATCH: np.array([3, 0])}),
        ("one-region-one-patch", _random_embeddings(rng, sizes=(1,)), 2,
         {HierarchyLevel.SLIDE: np.array([0]), HierarchyLevel.REGION: np.array([0]),
          HierarchyLevel.PATCH: np.array([0])}),
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
    """A copy of `emb` whose `level` ("slide", "regions", "patches" or
    "text") has row `row` replaced by the space part `space`."""
    rows = emb.space.space.data.copy()
    first = {"slide": 0, "regions": 1, "patches": 1 + len(emb.sizes),
             "text": emb.n_image}[level]
    rows[first + row] = space
    return EmbeddingSet(_pts(rows), emb.sizes)


def test_assemblies_guard_the_coincident_pairs_they_read():
    rng = np.random.default_rng(37)
    sel = _full_selection()
    # region 0 on its own patch 1: read by the region-to-patch entailment
    emb = _random_embeddings(rng)
    emb = _with_row(emb, "regions", 0, emb.patches.space.data[1])
    for fn in (ls.shc_total, _total_loss):
        with pytest.raises(GeometryError, match="coincident"):
            fn(emb, 0, sel, CFG, GEOM)
    # the alignment terms read no (region, patch) pair
    assert_allclose(ls.ama_total(emb, 0, sel, CFG, GEOM).item(),
                    _looped_ama_total(emb, 0, sel).item(), rtol=1e-12, atol=0.0)
    # the slide-level label text on the slide: read by both families
    emb = _random_embeddings(rng)
    emb = _with_row(emb, "text", HierarchyLevel.SLIDE.value * 3 + 1,
                    emb.slide.space.data[0])
    for fn in (ls.ama_total, ls.shc_total, _total_loss):
        with pytest.raises(GeometryError, match="coincident"):
            fn(emb, 1, sel, CFG, GEOM)
    # an apex row at the origin
    emb = _with_row(_random_embeddings(rng), "slide", 0, 0.0)
    for fn in (ls.ama_total, ls.shc_total, _total_loss):
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
    assert_allclose(_total_loss(emb, 0, sel, CFG, GEOM).item(), want, rtol=1e-12)


def _with_leaves(emb):
    """The same embeddings with their space a leaf requiring grad."""
    leaf = ad.Tensor(emb.space.space.data.copy(), requires_grad=True)
    return EmbeddingSet(geo.Points(leaf, emb.space.cfg), emb.sizes)


def _space_grads(fn, emb):
    leaf = _with_leaves(emb)
    out = fn(leaf)
    if out.requires_grad:
        out.backward()
    space = leaf.space.space
    return np.zeros(space.shape) if space.grad is None else space.grad


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
    # the space leaf (the image rows and the text) and the one loss node of
    # the classification, alignment and hierarchy terms: the same whichever
    # levels have selected rows
    full = _full_selection()
    no_patch = dict(full)
    no_patch[HierarchyLevel.PATCH] = np.array([], dtype=int)
    slide_only = dict(no_patch)
    slide_only[HierarchyLevel.REGION] = np.array([], dtype=int)
    emb = _with_leaves(_random_embeddings(np.random.default_rng(34)))
    sizes = [_graph_size(_total_loss(emb, 0, sel, CFG, GEOM))
             for sel in (full, no_patch, slide_only)]
    assert sizes == [2, 2, 2]


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


def _random_embeddings(rng, n_classes=3, sizes=(2, 2)):
    g2 = geo.GeometryConfig(1.0, 2)
    patches, regions, slide, text = (rng.normal(size=(n, 2)) * scale for n, scale in
                                     ((sum(sizes), 0.8), (len(sizes), 0.6), (1, 0.5),
                                      (3 * n_classes, 0.4)))
    return EmbeddingSet(
        geo.exp_map_origin(np.concatenate([slide, regions, patches, text]), g2),
        np.array(sizes))


def test_total_loss_weights():
    rng = np.random.default_rng(34)
    emb = _random_embeddings(rng)
    sel = _full_selection()

    def with_weights(la, lam_s):
        cfg = ls.LossConfig(lambda_a=la, lambda_s=lam_s)
        return _total_loss(emb, 0, sel, cfg, GEOM).item()

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
        # the slide, the regions and the patches, then the patch, region and
        # slide text, in HierarchyLevel order
        return EmbeddingSet(
            geo.select(pts, [6, 4, 5, 0, 1, 2, 3, 13, 14, 15, 10, 11, 12, 7, 8, 9]),
            np.array([2, 2]))

    no_patch = dict(sel)
    no_patch[HierarchyLevel.PATCH] = np.array([], dtype=int)
    for fn in (
        lambda: ls.cls_loss(build(), 0, CFG, GEOM),
        lambda: ls.ama_total(build(), 0, sel, CFG, GEOM),
        lambda: ls.shc_total(build(), 0, sel, CFG, GEOM),
        lambda: _total_loss(build(), 0, sel, CFG, GEOM),
        lambda: ls.ama_total(build(), 1, no_patch, CFG, GEOM),
        lambda: ls.shc_total(build(), 1, no_patch, CFG, GEOM),
    ):
        assert ad.finite_difference_check(fn, [x]) < 1e-4


def test_scalar_cores_finite_difference():
    # every entry at least 0.05 from its hinge kink, |neg| at least 0.1 from
    # zero and every exponent far below the clip at 700, so the central
    # differences see smooth functions
    theta = ad.Tensor([[0.2, 0.9, 1.4, 0.5],
                       [0.3, 0.7, 1.1, 0.45],
                       [1.2, 0.25, 0.6, 0.85]], requires_grad=True)
    aperture = ad.Tensor([[0.5], [0.8], [0.4]], requires_grad=True)
    assert np.abs(theta.data - CFG.beta_ent * aperture.data).min() >= 0.05
    assert np.abs(aperture.data - CFG.beta_con * theta.data).min() >= 0.05
    rng = np.random.default_rng(40)
    pos = ad.Tensor(rng.normal(size=(4, 1)) * 0.3, requires_grad=True)
    negs = ad.Tensor([[0.3, -0.5, 0.2], [-0.4, 0.6, 0.15],
                      [0.25, 0.1, -0.7], [-0.2, -0.35, 0.45]], requires_grad=True)
    weights = ad.Tensor(rng.uniform(0.5, 1.5, size=theta.shape))
    for fn, leaves in (
        (lambda: (ls.ent_penalty(theta, aperture, CFG.beta_ent) * weights).sum(),
         [theta, aperture]),
        (lambda: (ls.con_penalty(theta, aperture, CFG.beta_con) * weights).sum(),
         [theta, aperture]),
        (lambda: ls.ama_nll(pos, negs, CFG.tau), [pos, negs]),
    ):
        value = fn()
        assert value.item() > 0.0
        assert ad.finite_difference_check(fn, leaves) < 1e-6
