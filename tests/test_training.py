"""Optimizer math, top-K selection, config plumbing, and the training loop."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypermil import autodiff as ad
from hypermil import geometry as geo
from hypermil import training as tr
from hypermil.data import Bundle, FeatureBag, InnerSplit, SyntheticSpec, generate, make_splits
from hypermil.errors import ConfigError, GeometryError, TrainingError
from hypermil.losses import total_loss
from hypermil.model import HierarchyLevel, ModelDims, embed_slide, init_params


# -- config ---------------------------------------------------------------------


def test_train_config_validation():
    for bad in (dict(lr=0.0), dict(epochs=0), dict(val_every=0), dict(accumulate=0)):
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
        {"shared_aggregators": 1},
        {"seed": -1},
    ):
        with pytest.raises(ConfigError):
            tr.train_config_from_dict(bad)
    with pytest.raises(ConfigError):
        tr.TrainConfig(loss={"tau": 0.1})
    # ints are numbers, and numpy scalars are accepted like Python ones
    cfg = tr.train_config_from_dict({"lr": 1, "seed": np.int64(3)})
    assert cfg.lr == 1 and cfg.seed == 3


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
    p.grad = g.copy()
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
    p.grad = g1.copy()
    tr.adam_step(params, state, lr=0.01)
    p.grad = g2.copy()
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
    params.trainable()[0][1].grad = np.ones_like(params.trainable()[0][1].data)
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
    p.grad = np.full_like(p.data, np.nan)
    with pytest.raises(TrainingError):
        tr.adam_step(params, state, lr=0.1)
    # the error names the parameter, and no parameter moves, also those
    # laid out before it
    before = params.buffer.copy()
    for _, t in params.trainable():
        t.grad = np.ones_like(t.data)
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
            t.grad = rng.normal(size=t.data.shape)
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


# -- top-K selection --------------------------------------------------------------


def _selection_bag():
    r0 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.9, 0.0, 0.1]],
                  dtype=np.float32)
    r1 = np.array([[0.5, 0.5, 0.0], [1.0, 0.01, 0.0]], dtype=np.float32)
    return FeatureBag("s", 0, "site-0", [r0, r1])


def test_select_top_k_rankings():
    bag = _selection_bag()
    vectors = np.eye(2, 3)
    sel = tr.select_top_k(bag, vectors, label=0, k=3)
    # global patch rows by cosine to [1,0,0]: rows 0, 4, 2 lead
    assert sel[HierarchyLevel.PATCH].tolist() == [0, 4, 2]
    # region means: r1 mean points closer to [1,0,0] than r0 mean
    assert sel[HierarchyLevel.REGION].tolist() == [1, 0]
    assert sel[HierarchyLevel.SLIDE].tolist() == [0]


def test_select_top_k_truncates_and_breaks_ties_low():
    bag = FeatureBag(
        "s", 0, "site-0",
        [np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.float32)],
    )
    sel = tr.select_top_k(bag, np.eye(2, 3), label=0, k=2)
    assert sel[HierarchyLevel.PATCH].tolist() == [0, 1]
    sel_all = tr.select_top_k(bag, np.eye(2, 3), label=0, k=50)
    assert len(sel_all[HierarchyLevel.PATCH]) == 3
    assert len(sel_all[HierarchyLevel.REGION]) == 1


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


def test_default_train_step_graph_has_28_nodes(monkeypatch):
    # one node per model stage: 14 leaves (the input and 13 trainable
    # arrays), the two adaptors, two aggregates, the text features, four exp
    # maps, the slide-text select of cls_loss, geodesic and cls_nll; then one
    # node for the alignment and hierarchy terms with their weights folded
    # in, and the sum
    sizes = []
    _default_steps(monkeypatch, [
        (ad.Tensor, "backward", lambda root: sizes.append(_graph_size(root)))])
    assert sizes == [28] * 6


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


def test_skipped_slide_keeps_the_accumulation_window(monkeypatch):
    bundle, split, cfg = _tiny_setup()
    cfg = tr.TrainConfig(epochs=1, k=6, seed=3, accumulate=2)
    embedded, steps, losses = [], [], []

    def recording_embed(bag, params, geom, text=None):
        embedded.append(bag)
        return embed_slide(bag, params, geom, text)

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

    # the first step carries the first and third slides; the second, which
    # failed in its forward pass, adds nothing and removes nothing
    dims = ModelDims(d_in=bundle.dim, k=cfg.k, n_classes=2)
    params = init_params(dims, cfg.seed, bundle.class_vectors)
    geom = cfg.geometry()
    for bag in (embedded[0], embedded[2]):
        sel = tr.select_top_k(bag, bundle.class_vectors, bag.label,
                              cfg.loss.top_k)
        total_loss(embed_slide(bag, params, geom), bag.label, sel, cfg.loss,
                   geom).backward()
    want = _grads(params)
    assert steps[0].keys() == want.keys()
    for name, g in want.items():
        assert np.array_equal(steps[0][name], g), name


# -- gradient-check harness --------------------------------------------------------


def test_gradient_check_suite_smoke():
    worst = tr.gradient_check_suite(trials=2, seed=0)
    assert set(worst) == {
        "aggregation", "cls_loss", "ama_loss", "ent_loss", "con_loss",
        "total_loss",
    }
    for name, err in worst.items():
        assert err < 1e-4, (name, err)


def test_gradient_check_suite_rejects_bad_arguments():
    for bad in (dict(trials=0), dict(trials=-1), dict(seed=-1)):
        with pytest.raises(ConfigError):
            tr.gradient_check_suite(**bad)
