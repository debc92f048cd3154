"""Optimizer math, top-K selection, config plumbing, and the training loop."""

import hashlib
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypermil import autodiff as ad
from hypermil import geometry as geo
from hypermil import training as tr
from hypermil.data import Bundle, FeatureBag, InnerSplit, SyntheticSpec, generate, make_splits
from hypermil.errors import (
    ConfigError,
    EmptyBagError,
    GeometryError,
    ShapeError,
    SplitError,
    TrainingError,
)
from hypermil.losses import LossConfig, ama_total, cone_plan, shc_total, total_loss
from hypermil.model import (
    EmbeddingSet,
    HierarchyLevel,
    ModelDims,
    _stack,
    aggregate,
    embed_slide,
    embed_text,
    init_params,
    load_checkpoint,
    params_from_checkpoint,
    save_checkpoint,
)


# -- config ---------------------------------------------------------------------


def test_train_config_validation():
    for bad in (dict(lr=0.0), dict(epochs=0)):
        with pytest.raises(ConfigError):
            tr.TrainConfig(**bad)
    geom = tr.TrainConfig(curvature=2.0, k=8).geometry()
    assert geom.curvature == 2.0
    assert geom.dim == 8


def test_train_config_from_dict_splits_keys():
    cfg = tr.train_config_from_dict({"lr": 1e-3, "tau": 0.1, "epochs": 2})
    assert cfg.lr == 1e-3
    assert cfg.epochs == 2
    assert cfg.loss.tau == 0.1
    with pytest.raises(ConfigError):
        tr.train_config_from_dict({"lr": 1e-3, "bogus": 1})


def test_train_config_rejects_wrong_types():
    for bad in (
        {"lr": "fast"},
        {"epochs": "3"},
        {"tau": "x"},
        {"top_k": 2.5},
        {"seed": "a"},
        {"epochs": 3.0},
        {"lr": True},
        {"lambda_s": float("nan")},
        {"epochs": True},
        {"seed": -1},
    ):
        with pytest.raises(ConfigError):
            tr.train_config_from_dict(bad)
    with pytest.raises(ConfigError):
        tr.TrainConfig(loss={"tau": 0.1})
    # ints are numbers, and numpy scalars are accepted like Python ones
    cfg = tr.train_config_from_dict({"lr": 1, "seed": np.int64(3)})
    assert cfg.lr == 1 and cfg.seed == 3
    # a numpy float narrower than float64 too, without an overflow warning
    assert tr.TrainConfig(lr=np.float32(0.5)).lr == 0.5
    with pytest.raises(ConfigError):
        tr.TrainConfig(lr=np.float32("inf"))


def test_load_train_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epochs": 3, "lambda_s": 5.0}))
    cfg = tr.load_train_config(path)
    assert cfg.epochs == 3
    assert cfg.loss.lambda_s == 5.0
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError):
        tr.load_train_config(path)
    path.write_text('{"epochs": 3,')
    with pytest.raises(ConfigError):
        tr.load_train_config(path)


# -- Adam -----------------------------------------------------------------------


def _toy_params():
    dims = ModelDims(d_in=4, k=4, n_classes=2)
    return init_params(dims, 0)


def test_adam_single_step_matches_reference():
    params = _toy_params()
    name, p = params.trainable()[0]
    before = p.data.copy()
    g = np.random.default_rng(0).normal(size=p.data.shape)
    p.grad[...] = g
    state = tr.AdamState(params)
    tr.adam_step(params, state, lr=0.01)
    # first step: bias-corrected moments equal g and g^2 exactly
    want = before - 0.01 * g / (np.abs(g) + 1e-8)
    assert_allclose(p.data, want, rtol=1e-12)


def test_adam_two_steps_match_reference():
    params = _toy_params()
    name, p = params.trainable()[0]
    before = p.data.copy()
    rng = np.random.default_rng(1)
    g1, g2 = rng.normal(size=p.data.shape), rng.normal(size=p.data.shape)
    state = tr.AdamState(params)
    p.grad[...] = g1
    tr.adam_step(params, state, lr=0.01)
    p.grad[...] = g2
    tr.adam_step(params, state, lr=0.01)

    m = 0.1 * g1
    v = 0.001 * g1 * g1
    x = before - 0.01 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    m = 0.9 * m + 0.1 * g2
    v = 0.999 * v + 0.001 * g2 * g2
    x = x - 0.01 * (m / (1 - 0.9 ** 2)) / (np.sqrt(v / (1 - 0.999 ** 2)) + 1e-8)
    assert_allclose(p.data, x, rtol=1e-10)


def test_adam_skips_parameters_without_gradient():
    params = _toy_params()
    state = tr.AdamState(params)
    snapshot = {n: t.data.copy() for n, t in params.trainable()}
    params.trainable()[0][1].grad[...] = 1.0
    tr.adam_step(params, state, lr=0.1)
    for name, t in params.trainable()[1:]:
        assert np.array_equal(t.data, snapshot[name]), name
    assert not np.array_equal(
        params.trainable()[0][1].data, snapshot[params.trainable()[0][0]]
    )


def test_adam_rejects_non_finite_gradient():
    params = _toy_params()
    state = tr.AdamState(params)
    _, p = params.trainable()[0]
    p.grad[...] = np.nan
    with pytest.raises(TrainingError):
        tr.adam_step(params, state, lr=0.1)
    # the error names the parameter, and no parameter moves, also those
    # laid out before it
    before = params.buffer.copy()
    for _, t in params.trainable():
        t.grad[...] = 1.0
    name, p = params.trainable()[3]
    p.grad.reshape(-1)[-1] = np.inf
    with pytest.raises(TrainingError, match=name):
        tr.adam_step(params, state, lr=0.1)
    assert np.array_equal(params.buffer, before)
    assert not state.m.any() and not state.v.any()


def test_adam_flat_step_matches_per_parameter_loop():
    params = _toy_params()
    reference = {n: t.data.copy() for n, t in params.trainable()}
    moments = {n: (np.zeros_like(t.data), np.zeros_like(t.data))
               for n, t in params.trainable()}
    state = tr.AdamState(params)
    rng = np.random.default_rng(4)
    for step in range(1, 4):
        c1 = 1.0 - tr.AdamState.beta1 ** step
        c2 = 1.0 - tr.AdamState.beta2 ** step
        for name, t in params.trainable():
            t.grad[...] = rng.normal(size=t.data.shape)
            m, v = moments[name]
            m *= tr.AdamState.beta1
            m += (1.0 - tr.AdamState.beta1) * t.grad
            v *= tr.AdamState.beta2
            v += (1.0 - tr.AdamState.beta2) * t.grad * t.grad
            reference[name] -= 0.01 * (m / c1) / (np.sqrt(v / c2)
                                                  + tr.AdamState.eps)
        tr.adam_step(params, state, lr=0.01)
    for name, t in params.trainable():
        assert np.array_equal(t.data, reference[name]), name


def _assert_grads_are_views(params):
    """Each trainable's `grad` is its span of `params.grad`, in `trainable()`
    order, and one `zero_grads()` zeroes every one of them."""
    stop = 0
    for name, t in params.trainable():
        start, stop = stop, stop + t.data.size
        params.grad[start:stop] = np.arange(start, stop) + 1.0
        assert t.grad.shape == t.data.shape, name
        assert np.array_equal(t.grad.reshape(-1), params.grad[start:stop]), name
    assert stop == params.grad.size == params.flat.size
    params.zero_grads()
    for name, t in params.trainable():
        assert not t.grad.any(), name


def test_trainable_grads_are_views_of_the_flat_gradient(tmp_path):
    bundle, split, cfg = _tiny_setup()
    res = tr.train(bundle, split, cfg)
    path = tmp_path / "trained.ckpt"
    save_checkpoint(res.params, path)
    restored, _ = params_from_checkpoint(load_checkpoint(path))
    fresh = init_params(res.params.dims, 5)
    # the check's backward passes write into the views it resets
    geom = cfg.geometry()
    checked = [fresh.agg_region.w2, fresh.semantics.offsets]

    def root():
        space = embed_slide(bundle.bags[0], fresh, geom).space.space
        return (space * space).sum()

    assert ad.finite_difference_check(root, checked) < 1e-4
    assert fresh.grad.any()
    for params in (fresh, fresh.copy(), restored, res.params, res.best_params):
        _assert_grads_are_views(params)


# -- top-K selection --------------------------------------------------------------


def _selection_bag():
    r0 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.9, 0.0, 0.1]],
                  dtype=np.float32)
    r1 = np.array([[0.5, 0.5, 0.0], [1.0, 0.01, 0.0]], dtype=np.float32)
    return FeatureBag("s", 0, "site-0", [r0, r1])


def test_select_top_k_rankings():
    bag = _selection_bag()
    vectors = np.eye(2, 3)
    sel = tr.select_top_k([bag], vectors, k=3)
    # global patch rows by cosine to [1,0,0]: rows 0, 4, 2 lead
    assert sel[HierarchyLevel.PATCH].tolist() == [[0, 4, 2]]
    # region means: r1 mean points closer to [1,0,0] than r0 mean
    assert sel[HierarchyLevel.REGION].tolist() == [[1, 0]]
    assert sel[HierarchyLevel.SLIDE].tolist() == [[0]]


def test_select_top_k_truncates_and_breaks_ties_low():
    bag = FeatureBag(
        "s", 0, "site-0",
        [np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.float32)],
    )
    sel = tr.select_top_k([bag], np.eye(2, 3), k=2)
    assert sel[HierarchyLevel.PATCH].tolist() == [[0, 1]]
    sel_all = tr.select_top_k([bag], np.eye(2, 3), k=50)
    assert sel_all[HierarchyLevel.PATCH].shape == (1, 3)
    assert sel_all[HierarchyLevel.REGION].shape == (1, 1)


def _cosine(rows, vector):
    norms = np.linalg.norm(rows, axis=1)
    vnorm = np.linalg.norm(vector)
    denom = np.maximum(norms * vnorm, 1e-12)
    return rows @ vector / denom


def _select_top_k_reference(bag, class_vectors, label, k):
    """The per-slide body `select_top_k` had before it ranked many bags at
    once, kept as the looped oracle of the batched one."""
    vector = np.asarray(class_vectors[label], dtype=np.float64)
    patches = bag.patches.astype(np.float64)
    patch_rows = np.argsort(-_cosine(patches, vector), kind="stable")[:k]
    starts = np.cumsum(bag.sizes) - bag.sizes
    region_means = np.add.reduceat(patches, starts, axis=0) / bag.sizes[:, None]
    region_rows = np.argsort(-_cosine(region_means, vector), kind="stable")[:k]
    return {
        HierarchyLevel.PATCH: patch_rows,
        HierarchyLevel.REGION: region_rows,
        HierarchyLevel.SLIDE: np.array([0]),
    }


def _select_top_k_per_region(bag, class_vectors, label, k):
    """select_top_k with the region means taken one region at a time."""
    vector = np.asarray(class_vectors[label], dtype=np.float64)
    patches = np.concatenate(bag.regions, axis=0, dtype=np.float64)
    means = np.stack([region.astype(np.float64).mean(axis=0) for region in bag.regions])
    return {
        HierarchyLevel.PATCH: np.argsort(-_cosine(patches, vector), kind="stable")[:k],
        HierarchyLevel.REGION: np.argsort(-_cosine(means, vector), kind="stable")[:k],
        HierarchyLevel.SLIDE: np.array([0]),
    }, means


@pytest.mark.parametrize("n_classes", [3, 2])
def test_select_top_k_of_many_bags_equals_the_per_slide_body(n_classes):
    # every bag of the default bundle (and of a two-class one) ranked in one
    # call, with K from one up to above the counts
    bundle = generate(SyntheticSpec(n_classes=n_classes))
    for k in (1, 8, 100):
        got = tr.select_top_k(bundle.bags, bundle.class_vectors, k)
        for b, bag in enumerate(bundle.bags):
            want = _select_top_k_reference(bag, bundle.class_vectors, bag.label, k)
            for level in HierarchyLevel:
                assert got[level].dtype == want[level].dtype
                assert np.array_equal(got[level][b], want[level]), (bag.slide_id, level)


def test_select_top_k_matches_the_per_region_loop():
    rng = np.random.default_rng(12)
    default = generate(SyntheticSpec(seed=3))
    uneven = [FeatureBag(f"u{i}", 0, "x", [rng.standard_normal((n, 6)).astype(np.float32)
                                           for n in rng.integers(1, 40, size=9)])
              for i in range(20)]
    # the default bags share one layout and are ranked together; each uneven
    # bag has a layout of its own
    for batches, class_vectors in (([default.bags], default.class_vectors),
                                   ([[bag] for bag in uneven], rng.standard_normal((2, 6)))):
        for bags in batches:
            for k in (1, 4, 1000):
                got = tr.select_top_k(bags, class_vectors, k)
                for b, bag in enumerate(bags):
                    want, means = _select_top_k_per_region(bag, class_vectors,
                                                           bag.label, k)
                    for level in HierarchyLevel:
                        assert np.array_equal(got[level][b], want[level]), (bag.slide_id,
                                                                            level)
                    # the block's region means are the per-region means, bit for bit
                    block = bag.patches.astype(np.float64)
                    starts = np.cumsum(bag.sizes) - bag.sizes
                    assert np.array_equal(
                        np.add.reduceat(block, starts) / bag.sizes[:, None], means)


def test_select_top_k_rejects_bags_embed_slide_refuses():
    with pytest.raises(EmptyBagError, match="^slide s has no regions"):
        tr.select_top_k([FeatureBag("s", 0, "x", [])], np.eye(2, 3), 2)
    empty_last = FeatureBag("s", 0, "x", [np.ones((2, 3)), np.ones((0, 3))])
    with pytest.raises(EmptyBagError, match="^slide s region 1 has no patches"):
        tr.select_top_k([empty_last], np.eye(2, 3), 2)
    narrow = FeatureBag("s", 0, "x", [np.ones((2, 3))])
    with pytest.raises(ShapeError, match=r"^slide s region 0 is not a \[patches x 4\]"):
        tr.select_top_k([narrow], np.eye(2, 4), 2)


def test_select_top_k_rejects_labels_outside_the_classes():
    for label in (5, -1):
        bag = FeatureBag("s", label, "x", [np.ones((2, 3))])
        with pytest.raises(ShapeError, match=f"^slide s has label {label}, outside "
                                             "the 2 classes"):
            tr.select_top_k([bag], np.eye(2, 3), 2)


def test_select_top_k_checks_bags_in_order_and_takes_one_layout():
    good = FeatureBag("a", 0, "x", [np.ones((2, 3)), np.ones((1, 3))])
    recut = FeatureBag("b", 1, "x", [np.ones((1, 3)), np.ones((2, 3))])
    bad = FeatureBag("c", 2, "x", [np.ones((2, 3)), np.ones((1, 3))])
    with pytest.raises(ShapeError, match=r"^slide b has regions of \[1, 2\] patches, "
                                         r"not the \[2, 1\] of slide a"):
        tr.select_top_k([good, recut, bad], np.eye(2, 3), 2)
    with pytest.raises(ShapeError, match="^slide c has label 2, outside the 2 classes"):
        tr.select_top_k([good, bad, recut], np.eye(2, 3), 2)
    with pytest.raises(ShapeError, match="^no bags to stack$"):
        tr.select_top_k([], np.eye(2, 3), 2)


def test_fold_seed_deterministic_and_distinct():
    assert tr._fold_seed(0, 1, 2) == tr._fold_seed(0, 1, 2)
    seeds = {tr._fold_seed(0, o, i) for o in range(3) for i in range(3)}
    assert len(seeds) == 9


# -- training loop ----------------------------------------------------------------


def _tiny_setup():
    spec = SyntheticSpec(
        n_classes=2, slides_per_class=6, n_regions=2, n_patches=4,
        d_in=8, n_sites=2, seed=1,
    )
    bundle = generate(spec)
    plan = make_splits(bundle.bags, 1, 1, seed=0)
    cfg = tr.TrainConfig(epochs=2, k=6, seed=3)
    return bundle, plan.folds[0].inner[0], cfg


def _recut(bag, sizes):
    """The bag with its patches regrouped into regions of the given sizes."""
    stops = np.cumsum(sizes)
    return FeatureBag(bag.slide_id, bag.label, bag.site,
                      [bag.patches[stop - size:stop] for size, stop in zip(sizes, stops)])


def test_train_builds_one_cone_plan_per_training_slide(monkeypatch):
    bundle, split, cfg = _tiny_setup()
    cfg = tr.TrainConfig(epochs=3, k=6, seed=3)
    # every third bag regrouped from regions of 4 and 4 patches into 3 and 5
    bundle.bags = [_recut(bag, [3, 5]) if b % 3 == 0 else bag
                   for b, bag in enumerate(bundle.bags)]
    by_id = {bag.slide_id: bag for bag in bundle.bags}
    train_bags = [by_id[i] for i in split.train_ids]
    assert len({bag.sizes.tobytes() for bag in train_bags}) == 2
    built, steps = [], []

    def counting_plan(*args):
        built.append((args, cone_plan(*args)))
        return built[-1][1]

    def recording_embed(bag, params, geom):
        steps.append(bag)
        return embed_slide(bag, params, geom)

    def recording_loss(emb, plan, loss_cfg, geom):
        steps[-1] = (steps[-1], plan)
        return total_loss(emb, plan, loss_cfg, geom)

    monkeypatch.setattr(tr, "cone_plan", counting_plan)
    monkeypatch.setattr(tr, "embed_slide", recording_embed)
    monkeypatch.setattr(tr, "total_loss", recording_loss)
    res = tr.train(bundle, split, cfg)
    assert res.skipped == 0
    # one builder call per layout, for the whole run: each layout's bags in
    # split order, one plan each
    assert len(built) == 2
    own = {}
    for args, plans in built:
        group = [bag for bag in train_bags if bag.sizes.tobytes() == args[0].tobytes()]
        assert args[2] == [bag.label for bag in group]
        assert len(plans) == len(group)
        own.update({id(bag): plan for bag, plan in zip(group, plans)})
    assert len(own) == len(train_bags)
    # every training step of the three epochs reads its own slide's plan
    train_steps = [step for step in steps if isinstance(step, tuple)]
    assert len(train_steps) == 3 * len(train_bags)
    assert sorted(id(bag) for bag, _ in train_steps) == sorted(
        id(bag) for bag in train_bags for _ in range(3))
    assert all(plan is own[id(bag)] for bag, plan in train_steps)


@pytest.mark.parametrize("fault", ["label", "empty region", "width"])
def test_train_names_the_first_bad_training_slide_before_any_step(monkeypatch, fault):
    bundle, split, cfg = _tiny_setup()
    by_id = {bag.slide_id: bag for bag in bundle.bags}
    third, fifth = split.train_ids[2], split.train_ids[4]
    bag = by_id[third]
    # the third slide is at fault, under a layout no earlier slide has; the
    # fifth, of the common layout, is at fault too, and is not the one named
    bad, error, message = {
        "label": (FeatureBag(third, 5, bag.site, [bag.patches[:3], bag.patches[3:]]),
                  ShapeError, f"slide {third} has label 5, outside the 2 classes"),
        "empty region": (FeatureBag(third, bag.label, bag.site,
                                    [bag.patches, bag.patches[:0]]),
                         EmptyBagError, f"slide {third} region 1 has no patches"),
        "width": (FeatureBag(third, bag.label, bag.site,
                             [bag.patches[:3, :6], bag.patches[3:, :6]]),
                  ShapeError, rf"slide {third} region 0 is not a \[patches x 8\] "
                              r"array: shape \(3, 6\)"),
    }[fault]
    by_id[third] = bad
    by_id[fifth] = FeatureBag(fifth, -1, "x", by_id[fifth].regions)
    bundle.bags = list(by_id.values())
    steps = []
    monkeypatch.setattr(tr, "embed_slide", lambda *args: steps.append(args))
    with pytest.raises(error, match=f"^{message}$"):
        tr.train(bundle, split, cfg)
    assert steps == []


def test_train_runs_and_reports():
    bundle, split, cfg = _tiny_setup()
    res = tr.train(bundle, split, cfg)
    assert len(res.log) == 2
    assert res.skipped == 0
    assert all(np.isfinite(s.train_loss) for s in res.log)
    assert 0.0 <= res.best_val_auc <= 1.0
    assert res.best_params is not res.params
    for name, t in res.params.trainable():
        assert np.all(np.isfinite(t.data)), name


def test_train_deterministic_in_seed():
    bundle, split, cfg = _tiny_setup()
    a = tr.train(bundle, split, cfg)
    b = tr.train(bundle, split, cfg)
    for (name, ta), (_, tb) in zip(a.params.named(), b.params.named()):
        assert np.array_equal(ta.data, tb.data), name
    import dataclasses

    c = tr.train(bundle, split, dataclasses.replace(cfg, seed=4))
    assert any(
        not np.array_equal(ta.data, tc.data)
        for (_, ta), (_, tc) in zip(a.params.named(), c.params.named())
    )


def test_train_without_validation_uses_final_params():
    bundle, split, cfg = _tiny_setup()
    split = InnerSplit(
        train_ids=split.train_ids + split.val_ids, val_ids=(),
        test_ids=split.test_ids,
    )
    res = tr.train(bundle, split, cfg)
    assert np.isnan(res.best_val_auc)
    for (name, ta), (_, tb) in zip(res.params.named(), res.best_params.named()):
        assert np.array_equal(ta.data, tb.data), name


def test_train_rejects_empty_split_and_single_class():
    bundle, split, cfg = _tiny_setup()
    with pytest.raises(TrainingError):
        tr.train(bundle, InnerSplit((), split.val_ids, ()), cfg)
    solo = Bundle(
        bags=[b for b in bundle.bags if b.label == 0],
        class_vectors=bundle.class_vectors[:1],
        class_names=bundle.class_names[:1],
        dim=bundle.dim,
    )
    ids = tuple(b.slide_id for b in solo.bags)
    with pytest.raises(TrainingError):
        tr.train(solo, InnerSplit(ids[:4], ids[4:], ()), cfg)


def test_train_refuses_split_ids_the_bundle_lacks(monkeypatch):
    bundle, split, cfg = _tiny_setup()
    # refused before any model is built
    monkeypatch.setattr(tr, "init_params", lambda *args: pytest.fail("a model was built"))
    for bad, missing in ((InnerSplit(("nope",) + split.train_ids, split.val_ids, ()),
                          "nope"),
                         (InnerSplit(split.train_ids, split.val_ids + ("x", "y"), ()),
                          "x, y"),
                         (InnerSplit(("a",) + split.train_ids, ("b",), ()), "a, b")):
        with pytest.raises(SplitError, match=f"^split: slide ids not in bundle: {missing}$"):
            tr.train(bundle, bad, cfg)


def test_train_fails_when_too_many_slides_skip():
    # a slide whose patches are all one identical row embeds its region onto
    # the same point as its patches, an undefined exterior-angle configuration
    rng = np.random.default_rng(2)
    bags = [
        FeatureBag(f"s{i}", i % 2, "site-0",
                   [rng.normal(size=(3, 6)).astype(np.float32)])
        for i in range(10)
    ]
    constant = np.ones((4, 6), dtype=np.float32)
    bags.append(FeatureBag("bad", 0, "site-0", [constant]))
    bundle = Bundle(
        bags=bags, class_vectors=np.eye(2, 6), class_names=["a", "b"], dim=6
    )
    split = InnerSplit(tuple(b.slide_id for b in bags), (), ())
    cfg = tr.TrainConfig(epochs=1, k=4, seed=0)
    with pytest.raises(TrainingError):
        tr.train(bundle, split, cfg)


def _graph_size(root):
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def _default_steps(monkeypatch, wraps):
    """Run one epoch of `train` on 6 default slides with each owner.name of
    `wraps`, a list of (owner, name, record), wrapped so that every call
    first passes its arguments to `record`."""
    bundle = generate(SyntheticSpec())
    split = make_splits(bundle.bags, 1, 1, seed=0).folds[0].inner[0]
    split = InnerSplit(split.train_ids[:6], split.val_ids, split.test_ids)
    for owner, name, record in wraps:
        def recording(*args, wrapped=getattr(owner, name), record=record):
            record(*args)
            return wrapped(*args)

        monkeypatch.setattr(owner, name, recording)
    tr.train(bundle, split, tr.TrainConfig(epochs=1))


def test_default_train_step_graph_has_22_nodes(monkeypatch):
    # one node per model stage: 14 leaves (the input and 13 trainable
    # arrays), the two adaptors, two aggregates, the text features, the
    # stack of the slide, region, patch and class-text tangents, its one exp
    # map, and one loss node for the classification, alignment and
    # hierarchy terms with their weights folded in
    sizes = []
    _default_steps(monkeypatch, [
        (ad.Tensor, "backward", lambda root: sizes.append(_graph_size(root)))])
    assert sizes == [22] * 6


def test_default_train_step_maps_once(monkeypatch):
    events = []
    _default_steps(monkeypatch, [
        (geo, "exp_map_origin", lambda *args: events.append("map")),
        (ad.Tensor, "backward", lambda root: events.append("backward"))])
    # the stacked image and class-text rows before each backward, then the
    # validation's text and slides
    assert events == ["map", "backward"] * 6 + ["map", "map"]


def test_train_loss_pinned_under_each_weighting():
    # per-epoch train_loss of a 2-epoch run on 6 default slides, as
    # float.hex, for cls-only, ama-only, shc-only and full; recorded when
    # each image level had its own map and each term its own nodes, which
    # the stacked map and the one loss node reproduce bit for bit
    pins = {
        (0.0, 0.0): ["0x1.105c8c0daf227p+0", "0x1.0b06bacbef6a1p+0"],
        (1.0, 0.0): ["0x1.48b54d3349fbdp+3", "0x1.ae686a57f7e49p+0"],
        (0.0, 10.0): ["0x1.533316d8165afp+5", "0x1.84b80f40d50e7p+4"],
        (1.0, 10.0): ["0x1.a7994a675238dp+5", "0x1.ad33b9e0ff46fp+4"],
    }
    bundle = generate(SyntheticSpec())
    split = make_splits(bundle.bags, 1, 1, seed=0).folds[0].inner[0]
    split = InnerSplit(split.train_ids[:6], (), ())
    for (lambda_a, lambda_s), want in pins.items():
        loss = LossConfig(lambda_a=lambda_a, lambda_s=lambda_s)
        res = tr.train(bundle, split, tr.TrainConfig(epochs=2, loss=loss))
        assert [s.train_loss.hex() for s in res.log] == want, (lambda_a, lambda_s)


def test_train_params_pinned_under_each_weighting():
    # SHA-256 of the final parameter buffer of the four runs whose losses
    # `test_train_loss_pinned_under_each_weighting` pins, recorded when each
    # training slide's plan was built on its own
    pins = {
        (0.0, 0.0): "250eaafe21fb0833bacef1d1b35bf7587afcbf75a2d6ae804188c6f5eb1dd83b",
        (1.0, 0.0): "8cd0323ae262ec0703a4bd91873fcc770a562ed1e1947be8257c4fb3fc4008d8",
        (0.0, 10.0): "a029568eb05f9d57db3efefb138a2f560b2a38c599f5d5f63b12b771b49b610f",
        (1.0, 10.0): "070e214437a98a3686af23bb20717a0ae2b2139f8e4dbe599d28d7801707948a",
    }
    bundle = generate(SyntheticSpec())
    split = make_splits(bundle.bags, 1, 1, seed=0).folds[0].inner[0]
    split = InnerSplit(split.train_ids[:6], (), ())
    for key, want in pins.items():
        lambda_a, lambda_s = key
        cfg = tr.TrainConfig(epochs=2, loss=LossConfig(lambda_a=lambda_a, lambda_s=lambda_s))
        res = tr.train(bundle, split, cfg)
        got = hashlib.sha256(res.params.buffer.tobytes()).hexdigest()
        assert got == want, key


def test_joint_map_step_equals_the_step_over_two_maps():
    # the loss and every trainable gradient of a step over `embed_slide`,
    # which maps the image rows and the class text in one call, equal bit
    # for bit those of a step over the image rows and the class text mapped
    # apart (`embed_text`) and stacked by hand
    bundle = generate(SyntheticSpec())
    cfg = tr.TrainConfig()
    geom = cfg.geometry()
    n_classes = len(bundle.class_vectors)
    dims = ModelDims(d_in=bundle.dim, k=cfg.k, n_classes=n_classes)
    params = init_params(dims, cfg.seed, bundle.class_vectors)

    def step(bag, embed):
        sel = tr.select_top_k([bag], bundle.class_vectors, cfg.loss.top_k)
        (plan,) = cone_plan(bag.sizes, n_classes, [bag.label], sel, cfg.loss.lambda_a,
                            cfg.loss.lambda_s)
        params.zero_grads()
        loss = total_loss(embed(bag), plan, cfg.loss, geom)
        loss.backward()
        return loss.item(), _grads(params)

    def apart(bag):
        patch_tan = params.adaptor_i(ad.Tensor(bag.patches.astype(np.float64)))
        region_tan = aggregate(patch_tan, params.agg_region, bag.sizes)
        slide_tan = aggregate(region_tan, params.agg_slide)
        image = geo.exp_map_origin(_stack((slide_tan, region_tan, patch_tan)), geom)
        text = embed_text(params, geom)
        return EmbeddingSet(geo.Points(_stack((image.space, text.space)), geom),
                            bag.sizes)

    for bag in bundle.bags[::15]:
        joint_loss, joint = step(bag, lambda b: embed_slide(b, params, geom))
        apart_loss, want = step(bag, apart)
        assert joint_loss == apart_loss
        assert joint.keys() == want.keys()
        for name, g in want.items():
            assert np.array_equal(joint[name], g), name


def test_default_train_step_computes_one_exterior_angle_matrix(monkeypatch):
    calls = []
    _default_steps(monkeypatch, [
        (geo, name, lambda *args, name=name: calls.append(name))
        for name in ("_exterior_forward", "_exterior_backward")])
    # one exterior-angle matrix per step, in the forward and in the backward
    assert calls == ["_exterior_forward", "_exterior_backward"] * 6


def _grads(params):
    return {n: None if t.grad is None else t.grad.copy()
            for n, t in params.trainable()}


def test_skipped_slide_takes_no_step(monkeypatch):
    bundle, split, cfg = _tiny_setup()
    cfg = tr.TrainConfig(epochs=1, k=6, seed=3)
    embedded, steps, losses = [], [], []

    def recording_embed(bag, params, geom):
        embedded.append(bag)
        return embed_slide(bag, params, geom)

    def failing_second(*args):
        losses.append(None)
        if len(losses) == 2:
            raise GeometryError("exterior angle is undefined for coincident points")
        return total_loss(*args)

    def recording_step(params, state, lr):
        steps.append(_grads(params))

    monkeypatch.setattr(tr, "embed_slide", recording_embed)
    monkeypatch.setattr(tr, "total_loss", failing_second)
    monkeypatch.setattr(tr, "adam_step", recording_step)
    with pytest.raises(TrainingError):  # one skip is above 1% of the steps
        tr.train(bundle, split, cfg)

    # one step per slide but the second, which failed in its forward pass;
    # the recorded steps move nothing, so each holds its own slide's
    # gradient at the initial parameters
    dims = ModelDims(d_in=bundle.dim, k=cfg.k, n_classes=2)
    params = init_params(dims, cfg.seed, bundle.class_vectors)
    geom = cfg.geometry()
    kept = embedded[:1] + embedded[2:]
    assert len(steps) == len(kept) == len(split.train_ids) - 1
    for bag, got in zip(kept, steps):
        params.zero_grads()
        sel = tr.select_top_k([bag], bundle.class_vectors, cfg.loss.top_k)
        (plan,) = cone_plan(bag.sizes, 2, [bag.label], sel, cfg.loss.lambda_a,
                            cfg.loss.lambda_s)
        total_loss(embed_slide(bag, params, geom), plan, cfg.loss, geom).backward()
        want = _grads(params)
        assert got.keys() == want.keys()
        for name, g in want.items():
            assert np.array_equal(got[name], g), name


# -- gradient-check harness --------------------------------------------------------


def test_gradient_check_suite_smoke():
    worst = tr.gradient_check_suite(trials=2, seed=0)
    assert set(worst) == {
        "aggregation", "cls_loss", "ama_loss", "ent_loss", "con_loss",
        "total_loss",
    }
    for name, err in worst.items():
        assert err < 1e-4, (name, err)


def test_gradient_check_suite_builds_only_the_training_ops(monkeypatch):
    ops = set()
    fused = ad.fused

    def recording(op, *args):
        ops.add(op)
        return fused(op, *args)

    monkeypatch.setattr(ad, "fused", recording)
    tr.gradient_check_suite(trials=1)
    # the model's nodes and the loss node, and the aggregation probe's glue
    assert ops == {"adaptor", "aggregate", "text_features", "stack",
                   "exp_map_origin", "loss", "mul", "sum"}


def test_gradient_check_roots_measure_the_training_terms(monkeypatch):
    seen = {}
    for name in ("embed_slide", "select_top_k"):
        def recording(*args, name=name, wrapped=getattr(tr, name)):
            seen[name] = (args, wrapped(*args))
            return seen[name][1]

        monkeypatch.setattr(tr, name, recording)
    roots = []

    def first_roots(f, params, h):
        out = f()
        roots.append(out)
        return tuple(0.0 for _ in out) if isinstance(out, tuple) else 0.0

    monkeypatch.setattr(ad, "finite_difference_check", first_roots)
    tr.gradient_check_suite(trials=1)
    cls, ama, ent, con, total = roots[1]
    for root in (cls, ama, ent, con, total):
        assert root._op == "loss" and len(root._parents) == 1
    emb = seen["embed_slide"][1]
    ([bag], _, _), selections = seen["select_top_k"]
    label = bag.label
    selections = {level: picked[0] for level, picked in selections.items()}
    cfg, geom = LossConfig(), geo.GeometryConfig(curvature=1.0, dim=4)
    # zero weights leave both roots summing the same two terms in the same
    # order as the hierarchy loss
    assert (ent.item() + con.item()
            == shc_total(emb, label, selections, cfg, geom).item())
    assert ent.item() > 0.0 and con.item() > 0.0
    slide_only = {HierarchyLevel.SLIDE: np.array([0]),
                  HierarchyLevel.REGION: np.array([], dtype=int),
                  HierarchyLevel.PATCH: np.array([], dtype=int)}
    assert ama.item() == ama_total(emb, label, slide_only, cfg, geom).item()


def test_gradient_check_suite_rejects_bad_arguments(monkeypatch):
    # each is refused before the first trial builds its model
    monkeypatch.setattr(tr, "init_params",
                        lambda *args: pytest.fail("a trial started"))
    for bad in (dict(trials=0), dict(trials=-1), dict(trials=1.5),
                dict(trials=True), dict(trials="2"), dict(seed=-1),
                dict(seed=0.5), dict(seed=False), dict(h=0.0), dict(h=-1.0),
                dict(h=float("nan")), dict(h=float("inf")), dict(h=10 ** 400),
                dict(h=True), dict(h="1e-5"), dict(h=None)):
        with pytest.raises(ConfigError):
            tr.gradient_check_suite(**{"trials": 1, **bad})


def test_gradient_check_suite_takes_a_float32_step():
    # a narrower float is not compared with the float64 maximum, which would
    # overflow its cast and warn
    assert max(tr.gradient_check_suite(trials=1, h=np.float32(1e-5)).values()) < 1e-4
