"""Metrics against brute-force oracles, the nested protocol, ablation, export."""

import concurrent.futures
import hashlib
import itertools
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypermil import autodiff as ad
from hypermil import evaluation as ev
from hypermil import geometry as geo
from hypermil import training
from hypermil.data import Bundle, FeatureBag, SyntheticSpec, generate, make_splits
from hypermil.errors import (ConfigError, EmptyBagError, MetricError, NumericalError,
                             ShapeError, TrainingError)
from hypermil.model import (HierarchyLevel, ModelDims, embed_text, init_params,
                            slide_tangents, text_level)
from hypermil.training import TrainConfig


# the SHA-256 of the `evaluate` scores of fresh parameters over 17 parts of
# 102 wide bags (32 regions of 16 patches), the benchmark's `eval-wide`
# layout; the scoring arithmetic may be reorganised, but not its bits
WIDE_SCORES_SHA256 = "75a21353e88d984fc7743c6e15ce1cd8de0eb9ad4da3652a9d992d258ad0c335"


def test_wide_evaluate_scores_pinned():
    bundle = generate(SyntheticSpec(slides_per_class=34, n_regions=32, seed=7919))
    cfg = TrainConfig(seed=7919)
    dims = ModelDims(d_in=bundle.dim, k=cfg.k, n_classes=len(bundle.class_vectors))
    params = init_params(dims, 7919, bundle.class_vectors)
    by_class = {}
    for bag in bundle.bags:
        by_class.setdefault(bag.label, []).append(bag)
    parts = [[] for _ in range(17)]
    for members in by_class.values():
        for part, rows in zip(parts, np.array_split(np.arange(len(members)), 17)):
            part += [members[i] for i in rows]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(ev.evaluate(part, params, cfg.geometry())[2].tobytes())
    assert digest.hexdigest() == WIDE_SCORES_SHA256


def _brute_force_binary_auc(scores, positive):
    pos = scores[positive]
    neg = scores[~positive]
    wins = 0.0
    for p in pos:
        for n in neg:
            wins += 1.0 if p > n else (0.5 if p == n else 0.0)
    return wins / (len(pos) * len(neg))


# -- AUC ------------------------------------------------------------------------


def test_auc_pinned_example():
    got = ev.auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
    assert_allclose(got, 0.75, atol=1e-15)


def test_auc_edge_values():
    labels = np.array([0, 0, 1, 1])
    assert ev.auc(np.array([1.0, 1.0, 1.0, 1.0]), labels) == 0.5
    assert ev.auc(np.array([0.1, 0.2, 0.3, 0.4]), labels) == 1.0
    assert ev.auc(np.array([0.4, 0.3, 0.2, 0.1]), labels) == 0.0


def test_auc_of_a_nan_score_is_a_metric_error():
    # NaN equals nothing, so ranking it would never close its tie group
    with pytest.raises(MetricError, match="NaN"):
        ev.auc([0.2, np.nan, 0.4], [0, 1, 0])


def test_auc_needs_both_classes():
    with pytest.raises(MetricError):
        ev.auc(np.array([0.1, 0.2]), np.array([1, 1]))


@pytest.mark.parametrize("scores, labels, message", [
    # fewer labels than score rows, more, a label matrix, no samples
    (np.ones((3, 2)), [0, 1], r"^scores of shape \(3, 2\) and labels of shape \(2,\)"),
    (np.ones((3, 2)), [0, 1, 1, 0],
     r"^scores of shape \(3, 2\) and labels of shape \(4,\)"),
    (np.ones(3), [[0, 1, 1]], r"^scores of shape \(3,\) and labels of shape \(1, 3\)"),
    ([], [], r"^scores of shape \(0,\) and labels of shape \(0,\)"),
    (np.ones((0, 3)), [], r"^scores of shape \(0, 3\) and labels of shape \(0,\)"),
    (0.5, 1, r"^scores of shape \(\) and labels of shape \(\)"),
])
def test_auc_needs_one_label_per_score_row(scores, labels, message):
    with pytest.raises(MetricError, match=message):
        ev.auc(scores, labels)


@pytest.mark.parametrize("predictions, labels, message", [
    # more predictions than labels, fewer, a scalar label, no samples
    ([0, 1], [1], r"^predictions of shape \(2,\) and labels of shape \(1,\)"),
    ([1], [0, 1], r"^predictions of shape \(1,\) and labels of shape \(2,\)"),
    ([1], 1, r"^predictions of shape \(1,\) and labels of shape \(\)"),
    ([], [], r"^predictions of shape \(0,\) and labels of shape \(0,\)"),
])
def test_f1_needs_one_label_per_prediction(predictions, labels, message):
    with pytest.raises(MetricError, match=message):
        ev.f1(predictions, labels)
    with pytest.raises(MetricError, match=message):
        ev.f1(predictions, labels, n_classes=2)


def test_auc_binary_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        # quantized scores so ties actually occur
        scores = rng.integers(0, 5, size=n) / 4.0
        want = _brute_force_binary_auc(scores, labels == 1)
        assert_allclose(ev.auc(scores, labels), want, atol=1e-12)


def test_auc_two_column_scores_use_positive_class():
    rng = np.random.default_rng(18)
    p = rng.random(6)
    scores = np.stack([1 - p, p], axis=1)
    labels = np.array([0, 1, 0, 1, 1, 0])
    assert_allclose(ev.auc(scores, labels), ev.auc(p, labels), atol=1e-15)


def test_auc_macro_matches_brute_force():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(3, 13))
        labels = rng.integers(0, 3, size=n)
        if len(set(labels.tolist())) < 3:
            continue
        scores = rng.integers(0, 4, size=(n, 3)) / 3.0
        want = np.mean(
            [_brute_force_binary_auc(scores[:, c], labels == c) for c in range(3)]
        )
        assert_allclose(ev.auc(scores, labels), want, atol=1e-12)


# -- F1 -------------------------------------------------------------------------


def test_f1_binary_positive_class():
    got = ev.f1(np.array([1, 1, 0, 1]), np.array([1, 0, 0, 1]))
    assert_allclose(got, 0.8, atol=1e-15)  # P=2/3, R=1


def test_f1_macro_hand_example():
    preds = np.array([0, 1, 2, 0, 1, 2])
    labels = np.array([0, 1, 1, 0, 2, 2])
    # class 0: P=1, R=1 -> 1; class 1: P=1/2, R=1/2 -> 1/2; class 2: P=1/2, R=1/2
    assert_allclose(ev.f1(preds, labels, n_classes=3), 2.0 / 3.0, atol=1e-12)


def test_f1_degenerate_class_scores_zero():
    assert ev.f1(np.array([0, 0]), np.array([1, 1]), n_classes=2) == 0.0


def _looped_f1(predictions, labels, n_classes):
    """F1 with each class's counts taken by its own masks, the reference
    the vectorized counts of `ev.f1` must equal."""
    scores = []
    for c in range(n_classes):
        tp = int(np.sum((predictions == c) & (labels == c)))
        fp = int(np.sum((predictions == c) & (labels != c)))
        fn = int(np.sum((predictions != c) & (labels == c)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return float(scores[1]) if n_classes == 2 else float(np.mean(scores))


def test_f1_equals_per_class_loop():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n_classes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 15))
        preds = rng.integers(0, n_classes, n)
        labels = rng.integers(0, n_classes, n)
        for c in (n_classes, n_classes + 1):
            assert ev.f1(preds, labels, n_classes=c) == _looped_f1(preds, labels, c)


# -- report shapes ----------------------------------------------------------------


def test_metric_report_aggregate_and_text():
    rows = tuple(
        ev.FoldMetrics(o, i, 0.9 + 0.01 * i, 0.8, 0.7, 0.6)
        for o in range(3)
        for i in range(5)
    )
    report = ev.MetricReport(rows=rows)
    agg = report.aggregate()
    assert_allclose(agg["auc_ind"][0], np.mean([r.auc_ind for r in rows]))
    assert_allclose(agg["f1_ood"], (0.6, 0.0), atol=1e-12)
    text = report.to_text()
    lines = text.strip().split("\n")
    assert len(lines) == 31  # 15 folds x 2 domains + summary
    assert sum("domain=IND" in l for l in lines) == 15
    assert sum("domain=OOD" in l for l in lines) == 15
    assert lines[-1].startswith("summary ")


# -- protocol -------------------------------------------------------------------


TINY_SPEC = SyntheticSpec(
    n_classes=2, slides_per_class=6, n_regions=2, n_patches=3, d_in=8,
    n_sites=2, seed=11,
)
TINY_CFG = TrainConfig(epochs=1, k=4, seed=2)


def test_run_protocol_shapes_and_determinism():
    bundle = generate(TINY_SPEC)
    report = ev.run_protocol(bundle, 2, 2, TINY_CFG)
    assert len(report.rows) == 4
    assert {(r.outer, r.inner) for r in report.rows} == {
        (0, 0), (0, 1), (1, 0), (1, 1)
    }
    for r in report.rows:
        for v in (r.auc_ind, r.f1_ind, r.auc_ood, r.f1_ood):
            assert 0.0 <= v <= 1.0

    # bag order inside the bundle must not matter
    shuffled = generate(TINY_SPEC)
    shuffled.bags.reverse()
    again = ev.run_protocol(shuffled, 2, 2, TINY_CFG)
    assert again == report


def test_run_protocol_pool_matches_serial():
    bundle = generate(TINY_SPEC)
    serial = ev.run_protocol(bundle, 2, 1, TINY_CFG)
    pooled = ev.run_protocol(bundle, 2, 1, TINY_CFG, jobs=2)
    assert serial == pooled


def test_ablate_pool_matches_serial_in_one_pool_over_one_plan(monkeypatch):
    def refuse(self, protocol):
        raise AssertionError("the bundle was pickled")

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, **kwargs):
            calls.append("pool")
            super().__init__(**kwargs)

    def counted_splits(*args, **kwargs):
        calls.append("plan")
        return make_splits(*args, **kwargs)

    bundle = generate(TINY_SPEC)
    serial = ev.ablate(bundle, TINY_CFG, n_outer=2, n_inner=1)
    calls = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(ev, "make_splits", counted_splits)
    # the forked workers inherit the patch, so pickling in either process fails
    monkeypatch.setattr(Bundle, "__reduce_ex__", refuse)
    assert ev.ablate(bundle, TINY_CFG, n_outer=2, n_inner=1, jobs=2) == serial
    assert calls == ["plan", "pool"]
    assert ev._worker_inputs == []


def test_a_fold_error_in_the_pool_is_raised_typed(monkeypatch):
    bundle = generate(TINY_SPEC)
    failing_seed = training._fold_seed(TINY_CFG.seed, 1, 0)
    train = training.train

    def train_or_fail(bundle, split, cfg):
        if cfg.seed == failing_seed:
            raise TrainingError("fold outer=1 inner=0 failed")
        return train(bundle, split, cfg)

    monkeypatch.setattr(training, "train", train_or_fail)
    with pytest.raises(TrainingError, match="outer=1 inner=0"):
        ev.run_protocol(bundle, 2, 1, TINY_CFG, jobs=2)
    assert multiprocessing.active_children() == []
    assert ev._worker_inputs == []


def test_pool_has_no_more_workers_than_folds_and_needs_fork(monkeypatch):
    class NoPool:
        """Records the pool size and starts no process."""

        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            raise RuntimeError("no pool")

    sizes = []
    bundle = generate(TINY_SPEC)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    with pytest.raises(RuntimeError, match="no pool"):
        ev.run_protocol(bundle, 2, 1, TINY_CFG, jobs=10**6)
    assert sizes == [2]
    # without the fork start method the folds run in this process
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    in_process = ev.run_protocol(bundle, 2, 1, TINY_CFG, jobs=2)
    assert in_process == ev.run_protocol(bundle, 2, 1, TINY_CFG)
    assert sizes == [2]


def test_negative_jobs_is_a_config_error():
    bundle = generate(TINY_SPEC)
    with pytest.raises(ConfigError, match="jobs"):
        ev.run_protocol(bundle, 2, 1, TINY_CFG, jobs=-2)
    with pytest.raises(ConfigError, match="jobs"):
        ev.ablate(bundle, TINY_CFG, n_outer=2, n_inner=1, jobs=-1)


def test_jobs_that_is_not_an_integer_is_a_config_error(monkeypatch):
    bundle = generate(TINY_SPEC)
    monkeypatch.setattr(ev.training, "train", lambda *args: pytest.fail("a fold ran"))
    for jobs in ("2", 1.5, None, True):
        with pytest.raises(ConfigError, match="^jobs must be an integer of at least 0"):
            ev.run_protocol(bundle, 2, 1, TINY_CFG, jobs=jobs)
        with pytest.raises(ConfigError, match="^jobs must be an integer of at least 0"):
            ev.ablate(bundle, TINY_CFG, n_outer=2, n_inner=1, jobs=jobs)


def test_run_protocol_single_fold_has_no_ood():
    bundle = generate(TINY_SPEC)
    report = ev.run_protocol(bundle, 1, 1, TINY_CFG)
    assert len(report.rows) == 1
    assert np.isnan(report.rows[0].auc_ood)
    assert 0.0 <= report.rows[0].auc_ind <= 1.0


def test_ablate_order_and_weights():
    bundle = generate(TINY_SPEC)
    results = ev.ablate(bundle, TINY_CFG, n_outer=2, n_inner=1)
    names = [name for name, _, _, _ in results]
    assert names == ["cls-only", "ama-only", "shc-only", "full"]
    weights = [(la, ls) for _, la, ls, _ in results]
    assert weights == [(0.0, 0.0), (1.0, 0.0), (0.0, 10.0), (1.0, 10.0)]
    table = ev.ablation_table(results)
    lines = table.strip().split("\n")
    assert len(lines) == 5
    assert lines[0].startswith("name ")
    assert lines[1].startswith("cls-only 0 0 ")
    assert lines[4].startswith("full 1 10 ")


# -- export ---------------------------------------------------------------------


def test_export_embeddings_rows_and_disk_bound(tmp_path):
    bundle = generate(TINY_SPEC)
    bags = bundle.bags[:3]
    cfg = TrainConfig(k=4)
    params = init_params(
        ModelDims(d_in=8, k=4, n_classes=2), 0, bundle.class_vectors
    )
    geom = cfg.geometry()
    path = tmp_path / "emb.csv"
    count = ev.export_embeddings(bags, params, geom, path)
    # classes x levels + slides + regions + patches
    want = 2 * 3 + 3 + 3 * 2 + 3 * 2 * 3
    assert count == want
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "level,class,slide_id,dist_origin,p1,p2"
    assert len(lines) == want + 1
    for line in lines[1:]:
        level, cls, slide_id, dist, p1, p2 = line.split(",")
        assert level in {"text", "slide", "region", "patch"}
        assert float(dist) > 0.0
        assert float(p1) ** 2 + float(p2) ** 2 < 1.0


def test_mean_origin_distances_keys():
    bundle = generate(TINY_SPEC)
    params = init_params(
        ModelDims(d_in=8, k=4, n_classes=2), 1, bundle.class_vectors
    )
    out = ev.mean_origin_distances(bundle.bags[:2], params, TrainConfig(k=4).geometry())
    assert set(out) == {"text", "slide", "region", "patch"}
    assert all(np.isfinite(v) and v > 0 for v in out.values())


def test_mean_origin_distances_without_bags_is_a_metric_error():
    params = init_params(ModelDims(d_in=8, k=4, n_classes=2), 3)
    with pytest.raises(MetricError, match="no bags"):
        ev.mean_origin_distances([], params, TrainConfig(k=4).geometry())


def test_predict_is_distribution():
    bundle = generate(TINY_SPEC)
    params = init_params(
        ModelDims(d_in=8, k=4, n_classes=2), 2, bundle.class_vectors
    )
    p = ev.predict(bundle.bags[0], params, TrainConfig(k=4).geometry())
    assert p.shape == (2,)
    assert np.all(p > 0)
    assert_allclose(p.sum(), 1.0, atol=1e-12)


def test_predict_maps_only_the_slide(monkeypatch):
    bundle = generate(replace(TINY_SPEC, n_regions=32))
    params = init_params(
        ModelDims(d_in=8, k=4, n_classes=2), 4, bundle.class_vectors
    )
    geom = TrainConfig(k=4).geometry()
    calls = []
    exp_map = geo.exp_map_origin

    def counted(x, cfg):
        calls.append(x.shape)
        return exp_map(x, cfg)

    monkeypatch.setattr(geo, "exp_map_origin", counted)
    bag = bundle.bags[0]
    assert len(bag.regions) == 32
    ev.predict(bag, params, geom)
    # the class text of all three levels, then the slide alone
    assert calls == [(3 * 2, 4), (1, 4)]

    # evaluate over N bags of one layout: one text embedding, one stacked
    # tangent pass, and one map of the class text of all three levels, then
    # one of every slide at once
    embedded = {"embed_text": 0, "slide_tangents": 0}

    def counting(name, fn):
        def wrapped(*args):
            embedded[name] += 1
            return fn(*args)
        return wrapped

    for name in embedded:
        monkeypatch.setattr(ev, name, counting(name, getattr(ev, name)))
    monkeypatch.setattr(ev, "embed_slide", None)  # scoring maps no image level
    calls.clear()
    n = len(bundle.bags)
    ev.evaluate(bundle.bags, params, geom)
    assert embedded == {"embed_text": 1, "slide_tangents": 1}
    assert calls == [(3 * 2, 4), (n, 4)]


def test_evaluate_maps_twice_and_never_stacks(monkeypatch):
    bundle = generate(TINY_SPEC)
    params = init_params(ModelDims(d_in=8, k=4, n_classes=2), 5, bundle.class_vectors)
    geom = TrainConfig(k=4).geometry()
    ops = []
    fused = ad.fused

    def recording(op, *args):
        ops.append(op)
        return fused(op, *args)

    monkeypatch.setattr(ad, "fused", recording)
    # the classes alternate, so every prefix of even length holds both
    mixed = [bag for pair in zip(*([b for b in bundle.bags if b.label == c]
                                   for c in (0, 1))) for bag in pair]
    for n in (2, 6, len(mixed)):
        ops.clear()
        ev.evaluate(mixed[:n], params, geom)
        # the class text and the slides of all n bags; no image rows stacked
        assert ops.count("exp_map_origin") == 2, n
        assert "stack" not in ops, n


def test_evaluate_rows_equal_predict_bit_for_bit():
    bundle = generate(TINY_SPEC)
    params = init_params(
        ModelDims(d_in=8, k=4, n_classes=2), 3, bundle.class_vectors
    )
    geom = TrainConfig(k=4).geometry()
    _, _, scores, labels = ev.evaluate(bundle.bags, params, geom)
    assert len(scores) == len(bundle.bags)
    for bag, row, label in zip(bundle.bags, scores, labels):
        assert np.array_equal(row, ev.predict(bag, params, geom))
        assert label == bag.label


def _assert_rows_equal_predict(bags, params, geom):
    # the path `evaluate` and `predict` share: some of these bag sets hold
    # one class, on which `evaluate` would fail for want of an AUC
    scores = ev._scores(bags, params, geom)
    assert len(scores) == len(bags)
    for bag, row in zip(bags, scores):
        assert np.array_equal(row, ev.predict(bag, params, geom)), bag.slide_id


# the bundle of the benchmark's eval-wide workload: 102 bags of 32 regions x
# 16 patches, d_in 32, k 16, three classes, scored in parts of 6 bags
WIDE_SPEC = SyntheticSpec(slides_per_class=34, n_regions=32, seed=7919)
WIDE_DIMS = ModelDims(d_in=32, k=16, n_classes=3)


def test_evaluate_rows_equal_predict_at_the_wide_shape():
    # a several-row BLAS product may round one row differently from the
    # one-row product of `predict`; which rows it hits depends on the values,
    # so every part of the workload is checked
    bundle = generate(WIDE_SPEC)
    params = init_params(WIDE_DIMS, 7919, bundle.class_vectors)
    geom = TrainConfig().geometry()
    for start in range(0, len(bundle.bags), 6):
        _assert_rows_equal_predict(bundle.bags[start:start + 6], params, geom)


def _looped_scores(bags, params, geom):
    """The [B x C] scores of `_scores`, with one `slide_tangents` pass per
    bag and the distances taken by one `geodesic_core` call per slide row:
    the oracle of the stacked passes and the stacked call."""
    with ad.no_grad():
        text = embed_text(params, geom)
        tangents = np.concatenate([slide_tangents([bag], params)[0].data
                                   for bag in bags])
        slides = geo.rows(geo.exp_map_origin(tangents, geom).space.data, geom)
        anchors = geo.rows(text_level(text, HierarchyLevel.SLIDE).space.data, geom)
    d = np.concatenate([geo.geodesic_core(slides.take(slice(i, i + 1)), anchors,
                                          geom)[0] for i in range(len(bags))])
    z = -d - np.max(-d, axis=1, keepdims=True)
    p = np.exp(z)
    return p / p.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n_bags", [1, 2, 6])
def test_stacked_distances_equal_a_per_slide_loop(n_bags):
    bundle = generate(WIDE_SPEC)
    params = init_params(WIDE_DIMS, 7919, bundle.class_vectors)
    geom = TrainConfig().geometry()
    for start in range(0, len(bundle.bags) - n_bags + 1, 6):
        bags = bundle.bags[start:start + n_bags]
        got = ev._scores(bags, params, geom)
        assert got.shape == (n_bags, WIDE_DIMS.n_classes)
        assert np.array_equal(got, _looped_scores(bags, params, geom)), start


@pytest.mark.parametrize("bad, what", [(np.nan, "NaN"), (np.inf, "only infinite")])
def test_scores_of_a_slide_at_infinity_are_a_numerical_error(monkeypatch, bad, what):
    # a slide mapped to infinity can be NaN from every class text, or
    # infinitely far from each; either leaves its softmax row NaN
    core = geo.geodesic_core

    def distances(u, v, cfg):
        d, backward = core(u, v, cfg)
        d[-1] = bad
        return d, backward

    bundle = generate(WIDE_SPEC)
    params = init_params(WIDE_DIMS, 7919, bundle.class_vectors)
    monkeypatch.setattr(geo, "geodesic_core", distances)
    with pytest.raises(NumericalError, match=f"geodesic produced {what}"):
        ev.evaluate(bundle.bags[:3], params, TrainConfig().geometry())


def test_evaluate_rows_equal_predict_with_one_patch_and_one_region_bags():
    bundle = generate(replace(WIDE_SPEC, slides_per_class=2, n_regions=4))
    rng = np.random.default_rng(5)
    one_patch = FeatureBag("one-patch", 0, "x", [rng.standard_normal((1, 32))])
    one_region = FeatureBag("one-region", 1, "x", [rng.standard_normal((16, 32))])
    bags = [one_patch, *bundle.bags[:2], one_region, *bundle.bags[2:]]
    params = init_params(WIDE_DIMS, 3, bundle.class_vectors)
    _assert_rows_equal_predict(bags, params, TrainConfig().geometry())


def _mixed_layout_bags():
    """Bags of three layouts, interleaved: 4 x 16, 2 x 16 and a ragged one,
    with both classes in each."""
    rng = np.random.default_rng(41)
    even = generate(replace(WIDE_SPEC, slides_per_class=3, n_regions=4)).bags
    few = [replace(bag, slide_id=f"few-{b}") for b, bag in enumerate(
        generate(replace(WIDE_SPEC, slides_per_class=2, n_regions=2)).bags)]
    ragged = [FeatureBag(f"ragged-{b}", b % 2, "x",
                         [rng.standard_normal((n, 32)) for n in (1, 3, 7)])
              for b in range(4)]
    return [bag for trio in itertools.zip_longest(even, few, ragged)
            for bag in trio if bag is not None]


def test_evaluate_over_mixed_layouts_keeps_input_order():
    bags = _mixed_layout_bags()
    params = init_params(WIDE_DIMS, 42, generate(WIDE_SPEC).class_vectors)
    geom = TrainConfig().geometry()
    _, _, scores, labels = ev.evaluate(bags, params, geom)
    assert labels.tolist() == [bag.label for bag in bags]
    for bag, row in zip(bags, scores):
        assert np.array_equal(row, ev.predict(bag, params, geom)), bag.slide_id
    # reversed input, reversed rows
    assert np.array_equal(ev.evaluate(bags[::-1], params, geom)[2], scores[::-1])


def test_scoring_passes_under_the_cap_give_the_same_rows(monkeypatch):
    bags = _mixed_layout_bags()
    params = init_params(WIDE_DIMS, 43, generate(WIDE_SPEC).class_vectors)
    geom = TrainConfig().geometry()
    passes = []
    tangents = ev.slide_tangents

    def counted(group, p):
        passes.append([bag.slide_id for bag in group])
        return tangents(group, p)

    monkeypatch.setattr(ev, "slide_tangents", counted)
    whole = ev._scores(bags, params, geom)
    # one pass per layout, each in input order
    assert passes == [[bag.slide_id for bag in bags if bag.sizes.tolist() == sizes]
                      for sizes in ([16] * 4, [16] * 2, [1, 3, 7])]
    # 9 bags of 4 x 16 x 32 entries, 6 of 2 x 16 x 32 and 4 of 11 x 32: two
    # of the largest per pass, or one, and a cap below every bag, which
    # leaves each bag a pass of its own
    assert [len(group) for group in passes] == [9, 6, 4]
    one_bag = bags[0].patches.size
    for cap, n_passes in ((2 * one_bag, 5 + 2 + 1), (one_bag, 9 + 3 + 1),
                          (1, len(bags))):
        monkeypatch.setattr(ev, "_PASS_ENTRIES", cap)
        passes.clear()
        assert np.array_equal(ev._scores(bags, params, geom), whole), cap
        assert len(passes) == n_passes, cap


def test_ragged_pooling_weights_count_in_the_pass_cap(monkeypatch):
    # a ragged layout pools by [B x R x N] block-diagonal weights; with more
    # regions than features those, not the patch block, are the largest
    # array of a pass and set how many bags share it
    rng = np.random.default_rng(45)
    sizes = [1, 2, 3] * 20  # 60 regions of 120 patches; 60 > d_in = 32 > k
    ragged = [FeatureBag(f"ragged-{b}", b % 2, "x",
                         [rng.standard_normal((n, 32)) for n in sizes])
              for b in range(6)]
    even = [FeatureBag(f"even-{b}", b % 2, "x",
                       [rng.standard_normal((2, 32)) for _ in range(60)])
            for b in range(6)]
    bags = ragged + even
    params = init_params(WIDE_DIMS, 46)
    geom = TrainConfig().geometry()
    whole = ev._scores(bags, params, geom)
    # room for two [60 x 120] pooling weights, or three [120 x 32] patch
    # blocks: the ragged bags pass two at a time, the even ones three
    monkeypatch.setattr(ev, "_PASS_ENTRIES", 2 * 60 * 120)
    assert [len(group) for group in ev._passes(bags, WIDE_DIMS)] == [2, 2, 2, 3, 3]
    assert np.array_equal(ev._scores(bags, params, geom), whole)
    # a lone bag is a pass of its own, whatever the cap
    monkeypatch.setattr(ev, "_PASS_ENTRIES", 1)
    assert list(ev._passes(bags[:1], WIDE_DIMS)) == [[0]]


def test_scoring_a_bag_a_pass_refuses_is_a_typed_error():
    bundle = generate(replace(WIDE_SPEC, slides_per_class=2, n_regions=4))
    params = init_params(WIDE_DIMS, 44, bundle.class_vectors)
    geom = TrainConfig().geometry()
    # the same layout as the others, but 33 features wide; and, later, one
    # with an empty region
    wide = FeatureBag("wide", 0, "x", [np.zeros((16, 33))] * 4)
    empty = FeatureBag("empty", 1, "x", [np.zeros((16, 32))] * 3 + [np.zeros((0, 32))])
    bags = bundle.bags[:2] + [wide] + bundle.bags[2:] + [empty]
    with pytest.raises(ShapeError, match=r"^slide wide region 0 is not a \[patches"):
        ev.evaluate(bags, params, geom)
    with pytest.raises(EmptyBagError, match="^slide empty region 3 has no patches"):
        ev.evaluate(bags[:2] + bags[3:], params, geom)
    with pytest.raises(ShapeError, match="^slide wide "):
        ev.predict(wide, params, geom)


def test_evaluate_without_bags_is_a_metric_error():
    params = init_params(ModelDims(d_in=8, k=4, n_classes=2), 3)
    with pytest.raises(MetricError):
        ev.evaluate([], params, TrainConfig(k=4).geometry())


def test_scoring_a_label_beyond_the_model_classes_is_a_shape_error():
    bags = generate(replace(TINY_SPEC, n_classes=3)).bags
    params = init_params(ModelDims(d_in=8, k=4, n_classes=2), 3)
    first = next(bag for bag in bags if bag.label == 2)
    with pytest.raises(ShapeError, match=f"^slide {first.slide_id} has label 2, "
                                         "outside the 2 classes$"):
        ev.evaluate(bags, params, TrainConfig(k=4).geometry())
