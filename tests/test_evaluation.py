"""Metrics against brute-force oracles, the nested protocol, ablation, export."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypermil import evaluation as ev
from hypermil import geometry as geo
from hypermil.data import SyntheticSpec, generate
from hypermil.errors import ConfigError, MetricError
from hypermil.model import ModelDims, embed_text, init_params
from hypermil.training import TrainConfig


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


def test_auc_needs_both_classes():
    with pytest.raises(MetricError):
        ev.auc(np.array([0.1, 0.2]), np.array([1, 1]))


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


def test_run_protocol_threaded_matches_serial():
    bundle = generate(TINY_SPEC)
    serial = ev.run_protocol(bundle, 2, 1, TINY_CFG)
    threaded = ev.run_protocol(bundle, 2, 1, TINY_CFG, jobs=2)
    assert serial == threaded


def test_negative_jobs_is_a_config_error():
    bundle = generate(TINY_SPEC)
    with pytest.raises(ConfigError, match="jobs"):
        ev.run_protocol(bundle, 2, 1, TINY_CFG, jobs=-2)
    with pytest.raises(ConfigError, match="jobs"):
        ev.ablate(bundle, TINY_CFG, n_outer=2, n_inner=1, jobs=-1)


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
    text = embed_text(params, geom)
    calls = []
    exp_map = geo.exp_map_origin

    def counted(x, cfg):
        calls.append(x.shape)
        return exp_map(x, cfg)

    monkeypatch.setattr(geo, "exp_map_origin", counted)
    bag = bundle.bags[0]
    assert len(bag.regions) == 32
    ev.predict(bag, params, geom, text)
    assert calls == [(1, 4)]


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


def test_evaluate_without_bags_is_a_metric_error():
    params = init_params(ModelDims(d_in=8, k=4, n_classes=2), 3)
    with pytest.raises(MetricError):
        ev.evaluate([], params, TrainConfig(k=4).geometry())


def test_scoring_a_label_beyond_the_model_classes_is_a_metric_error():
    bags = generate(replace(TINY_SPEC, n_classes=3)).bags
    params = init_params(ModelDims(d_in=8, k=4, n_classes=2), 3)
    first = next(bag for bag in bags if bag.label == 2)
    with pytest.raises(MetricError, match=first.slide_id):
        ev.evaluate(bags, params, TrainConfig(k=4).geometry())
