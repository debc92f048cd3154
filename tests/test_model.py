"""Model components: init, attention pooling, embedding pipeline, checkpoints."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hypermil import autodiff as ad
from hypermil import geometry as geo
from hypermil import model as md
from hypermil.data import FeatureBag
from hypermil.errors import (
    BadMagicError,
    ConfigError,
    EmptyBagError,
    FormatError,
    NumericalError,
    ShapeError,
    TruncatedPayloadError,
    VersionError,
)

DIMS = md.ModelDims(d_in=8, k=4, n_classes=3)
GEOM = geo.GeometryConfig(curvature=1.0, dim=4)


def _bag(rng, n_regions=2, n_patches=3, d_in=8, label=0):
    regions = [
        rng.normal(size=(n_patches, d_in)).astype(np.float32)
        for _ in range(n_regions)
    ]
    return FeatureBag(slide_id="s0", label=label, site="site0", regions=regions)


# -- levels and dims ------------------------------------------------------------


def test_hierarchy_level_chain():
    assert md.HierarchyLevel.SLIDE.subordinate is md.HierarchyLevel.REGION
    assert md.HierarchyLevel.REGION.subordinate is md.HierarchyLevel.PATCH
    assert md.HierarchyLevel.PATCH.subordinate is None
    assert md.HierarchyLevel.PATCH.superordinate is md.HierarchyLevel.REGION
    assert md.HierarchyLevel.SLIDE.superordinate is None


def test_model_dims_validation():
    for bad in (dict(d_in=0), dict(k=1), dict(n_classes=0), dict(d_hidden=-1)):
        with pytest.raises(ConfigError):
            md.ModelDims(**{"d_in": 8, **bad})
    assert md.ModelDims(d_in=8, d_hidden=0).hidden == 8
    assert md.ModelDims(d_in=8, d_hidden=5).hidden == 5


# -- initialization -------------------------------------------------------------


def test_init_params_deterministic():
    a = md.init_params(DIMS, 11)
    b = md.init_params(DIMS, 11)
    c = md.init_params(DIMS, 12)
    for (name, ta), (_, tb) in zip(a.named(), b.named()):
        assert np.array_equal(ta.data, tb.data), name
    assert any(
        not np.array_equal(ta.data, tc.data)
        for (_, ta), (_, tc) in zip(a.named(), c.named())
    )


def test_init_params_base_vectors_frozen():
    base = np.eye(3, 8)
    params = md.init_params(DIMS, 0, base)
    assert not params.semantics.base.requires_grad
    assert np.array_equal(params.semantics.base.data, base)
    assert params.semantics.offsets.requires_grad
    names = [n for n, _ in params.trainable()]
    assert "semantics.base" not in names
    assert "semantics.offsets" in names


def test_init_params_base_vector_shape_checked():
    with pytest.raises(ShapeError):
        md.init_params(DIMS, 0, np.zeros((2, 8)))


def test_shared_aggregators():
    dims = md.ModelDims(d_in=8, k=4, n_classes=3, shared_aggregators=True)
    params = md.init_params(dims, 0)
    assert params.agg_slide is params.agg_region
    names = [n for n, _ in params.named()]
    assert "agg_slide.w1" not in names
    assert "agg_region.w1" in names


def test_params_copy_is_independent():
    params = md.init_params(DIMS, 0)
    clone = params.copy()
    clone.adaptor_i.w1.data += 1.0
    assert not np.array_equal(params.adaptor_i.w1.data, clone.adaptor_i.w1.data)


# -- forward pieces -------------------------------------------------------------


def test_mlp_matches_manual():
    params = md.init_params(DIMS, 3)
    x = np.random.default_rng(0).normal(size=(5, 8))
    got = params.adaptor_i(ad.Tensor(x)).data
    m = params.adaptor_i
    want = np.tanh(x @ m.w1.data.T + m.b1.data) @ m.w2.data.T + m.b2.data
    assert_array_equal(got, want)


def test_mlp_gradients_finite_difference():
    params = md.init_params(DIMS, 12)
    rng = np.random.default_rng(11)
    x = ad.Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    probe = ad.Tensor(rng.normal(size=(5, 4)))
    m = params.adaptor_i

    def f():
        return (m(x) * probe).sum()

    assert ad.finite_difference_check(f, [x, m.w1, m.b1, m.w2, m.b2]) < 1e-6


def test_adaptor_and_aggregate_are_one_node_each():
    params = md.init_params(DIMS, 13)
    rng = np.random.default_rng(12)
    x = ad.Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    m = params.adaptor_i
    out = m(x)
    assert out._op == "adaptor"
    assert out._parents == (x, m.w1, m.b1, m.w2, m.b2)
    agg = params.agg_region
    pooled = md.aggregate(out, agg, [2, 4])
    assert pooled._op == "aggregate"
    assert pooled._parents == (out, agg.w1, agg.w2)


def test_nan_input_names_adaptor_and_aggregate():
    params = md.init_params(DIMS, 14)
    x = np.ones((3, 8))
    x[1, 2] = np.nan
    with pytest.raises(NumericalError, match="adaptor"):
        params.adaptor_i(ad.Tensor(x))
    f = np.ones((3, 4))
    f[2, 0] = np.nan
    with pytest.raises(NumericalError, match="aggregate"):
        md.aggregate(ad.Tensor(f), params.agg_region)


def test_attention_weights_distribution():
    params = md.init_params(DIMS, 4)
    feats = ad.Tensor(np.random.default_rng(1).normal(size=(6, 4)))
    w = md.attention_weights(feats, params.agg_region).data
    assert w.shape == (1, 6)
    assert np.all(w > 0)
    assert_allclose(w.sum(), 1.0, atol=1e-12)


def test_attention_weights_permutation_equivariant():
    params = md.init_params(DIMS, 4)
    x = np.random.default_rng(2).normal(size=(5, 4))
    perm = np.array([3, 0, 4, 1, 2])
    w = md.attention_weights(ad.Tensor(x), params.agg_region).data
    wp = md.attention_weights(ad.Tensor(x[perm]), params.agg_region).data
    assert_allclose(wp[0], w[0][perm], rtol=1e-12)


def test_attention_empty_raises():
    params = md.init_params(DIMS, 0)
    with pytest.raises(EmptyBagError):
        md.attention_weights(ad.Tensor(np.zeros((0, 4))), params.agg_region)


def test_aggregate_single_row_identity():
    params = md.init_params(DIMS, 5)
    x = np.random.default_rng(3).normal(size=(1, 4))
    got = md.aggregate(ad.Tensor(x), params.agg_region).data
    assert_allclose(got, x, rtol=1e-14)


def test_aggregate_is_weighted_mean():
    params = md.init_params(DIMS, 6)
    x = np.random.default_rng(4).normal(size=(7, 4))
    w = md.attention_weights(ad.Tensor(x), params.agg_region).data
    got = md.aggregate(ad.Tensor(x), params.agg_region).data
    assert got.shape == (1, 4)
    assert_allclose(got, w @ x, rtol=1e-12)
    # inside the convex hull coordinate-wise
    assert np.all(got[0] <= x.max(axis=0) + 1e-12)
    assert np.all(got[0] >= x.min(axis=0) - 1e-12)


SEGMENTS = [1, 3, 7]


def test_segmented_aggregate_matches_per_region_loop():
    params = md.init_params(DIMS, 6)
    x = ad.Tensor(np.random.default_rng(9).normal(size=(sum(SEGMENTS), 4)))
    got = md.aggregate(x, params.agg_region, SEGMENTS).data
    weights = md.attention_weights(x, params.agg_region, SEGMENTS).data
    bounds = np.cumsum([0] + SEGMENTS)
    assert got.shape == (len(SEGMENTS), 4)
    for r, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        piece = ad.Tensor(x.data[start:stop])
        want = md.aggregate(piece, params.agg_region).data[0]
        assert_allclose(got[r], want, rtol=0, atol=1e-15)
        want_w = md.attention_weights(piece, params.agg_region).data[0]
        assert_allclose(weights[r, start:stop], want_w, rtol=0, atol=1e-15)
        # block-diagonal: no weight outside the region's own rows
        assert not np.delete(weights[r], np.arange(start, stop)).any()


def test_segmented_aggregate_gradients_finite_difference():
    params = md.init_params(DIMS, 7)
    rng = np.random.default_rng(10)
    x = ad.Tensor(rng.normal(size=(sum(SEGMENTS), 4)), requires_grad=True)
    probe = ad.Tensor(rng.normal(size=(len(SEGMENTS), 4)))
    agg = params.agg_region

    def f():
        return (md.aggregate(x, agg, SEGMENTS) * probe).sum()

    assert ad.finite_difference_check(f, [x, agg.w1, agg.w2]) < 1e-6


def test_segmented_aggregate_rejects_empty_and_mismatched_segments():
    params = md.init_params(DIMS, 0)
    x = ad.Tensor(np.zeros((5, 4)))
    with pytest.raises(EmptyBagError):
        md.aggregate(x, params.agg_region, [2, 0, 3])
    with pytest.raises(ShapeError):
        md.aggregate(x, params.agg_region, [2, 2])


# -- embedding pipeline ---------------------------------------------------------


def test_embed_text_structure():
    params = md.init_params(DIMS, 7)
    text = md.embed_text(params, GEOM)
    assert set(text) == set(md.HierarchyLevel)
    for level, pts in text.items():
        assert pts.count == 3
        # matches a standalone pass over that level's features
        feats = params.semantics.level_features(level)
        want = geo.exp_map_origin(params.adaptor_t(feats), GEOM)
        assert_allclose(pts.space.data, want.space.data, rtol=1e-12)


def test_embed_slide_shapes():
    params = md.init_params(DIMS, 8)
    bag = _bag(np.random.default_rng(5), n_regions=3, n_patches=4)
    emb = md.embed_slide(bag, params, GEOM)
    assert emb.patches.count == 12
    assert emb.regions.count == 3
    assert emb.slide.count == 1
    assert emb.region_slices == [(0, 4), (4, 8), (8, 12)]


def test_embed_slide_on_manifold():
    params = md.init_params(DIMS, 9)
    bag = _bag(np.random.default_rng(6))
    emb = md.embed_slide(bag, params, GEOM)
    for pts in (emb.patches, emb.regions, emb.slide, *emb.text.values()):
        inner = (pts.space.data ** 2).sum(axis=1) - pts.time.data[:, 0] ** 2
        assert np.max(np.abs(inner + 1.0)) < 1e-9


def test_embed_slide_maps_patches_and_regions_on_first_read():
    params = md.init_params(DIMS, 15)
    bag = _bag(np.random.default_rng(8), n_regions=3, n_patches=4)
    emb = md.embed_slide(bag, params, GEOM)
    raw = ad.Tensor(np.concatenate(bag.regions, axis=0, dtype=np.float64))
    patch_tan = params.adaptor_i(raw)
    region_tan = md.aggregate(patch_tan, params.agg_region, [4, 4, 4])
    for got, tangent in ((emb.patches, patch_tan), (emb.regions, region_tan)):
        want = geo.exp_map_origin(tangent, GEOM)
        assert np.array_equal(got.space.data, want.space.data)
    assert emb.patches is emb.patches
    assert emb.regions is emb.regions


def test_embed_slide_errors():
    params = md.init_params(DIMS, 10)
    with pytest.raises(EmptyBagError):
        md.embed_slide(FeatureBag("s", 0, "x", []), params, GEOM)
    empty_region = FeatureBag(
        "s", 0, "x", [np.zeros((0, 8), dtype=np.float32)]
    )
    with pytest.raises(EmptyBagError):
        md.embed_slide(empty_region, params, GEOM)
    wrong_dim = FeatureBag("s", 0, "x", [np.zeros((3, 5), dtype=np.float32)])
    with pytest.raises(ShapeError):
        md.embed_slide(wrong_dim, params, GEOM)


def test_embed_slide_gradients_reach_all_trainables():
    params = md.init_params(DIMS, 11)
    bag = _bag(np.random.default_rng(7))
    emb = md.embed_slide(bag, params, GEOM)
    loss = (emb.slide.space * emb.slide.space).sum()
    for pts in emb.text.values():
        loss = loss + (pts.space * pts.space).sum()
    loss.backward()
    for name, t in params.trainable():
        assert t.grad is not None, name
        assert np.all(np.isfinite(t.grad)), name
        assert np.any(t.grad != 0.0), name
    assert params.semantics.base.grad is None


# -- checkpoints ----------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = md.init_params(DIMS, 12)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(params, path, meta={"epoch": 3, "val_auc": 0.875})
    records = md.load_checkpoint(path)
    for name, t in params.named():
        assert np.array_equal(records[name], t.data), name
    restored, meta = md.params_from_checkpoint(records)
    assert restored.dims == params.dims
    assert meta["epoch"] == 3.0
    assert meta["val_auc"] == 0.875

    bag = _bag(np.random.default_rng(8))
    a = md.embed_slide(bag, params, GEOM)
    b = md.embed_slide(bag, restored, GEOM)
    assert np.array_equal(a.slide.space.data, b.slide.space.data)


def test_checkpoint_shared_aggregators_roundtrip(tmp_path):
    dims = md.ModelDims(d_in=8, k=4, n_classes=3, shared_aggregators=True)
    params = md.init_params(dims, 13)
    path = tmp_path / "shared.ckpt"
    md.save_checkpoint(params, path)
    restored, _ = md.params_from_checkpoint(md.load_checkpoint(path))
    assert restored.agg_slide is restored.agg_region


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTCK" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        md.load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    params = md.init_params(DIMS, 14)
    path = tmp_path / "old.ckpt"
    md.save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    blob[5:9] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionError):
        md.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    params = md.init_params(DIMS, 15)
    path = tmp_path / "cut.ckpt"
    md.save_checkpoint(params, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(TruncatedPayloadError):
        md.load_checkpoint(path)


def test_checkpoint_missing_records_are_format_errors(tmp_path):
    params = md.init_params(DIMS, 16)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(params, path)
    for name in ("meta.d_in", "meta.shared_aggregators", "adaptor_t.b2",
                 "semantics.base"):
        records = md.load_checkpoint(path)
        del records[name]
        with pytest.raises(FormatError, match=name):
            md.params_from_checkpoint(records)
    records = md.load_checkpoint(path)
    records["meta.k"] = np.asarray(4.5)
    with pytest.raises(FormatError, match="meta.k"):
        md.params_from_checkpoint(records)


def test_checkpoint_shapes_checked_against_dims(tmp_path):
    params = md.init_params(DIMS, 17)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(params, path)
    for name, shape in DIMS.param_shapes().items():
        assert md.load_checkpoint(path)[name].shape == shape, name
        records = md.load_checkpoint(path)
        records[name] = np.zeros(shape[:-1] + (shape[-1] + 1,))
        with pytest.raises(ShapeError, match=name):
            md.params_from_checkpoint(records)
