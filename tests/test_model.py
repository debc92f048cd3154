"""Model components: init, attention pooling, embedding pipeline, checkpoints."""

import re
import struct

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


def test_model_dims_validation():
    for bad in (dict(d_in=0), dict(k=1), dict(n_classes=0)):
        with pytest.raises(ConfigError):
            md.ModelDims(**{"d_in": 8, **bad})


def test_model_dims_refuse_wrong_types():
    # a boolean is not a count, and neither is a fraction or a string
    for bad in (dict(d_in=8.5), dict(d_in=True), dict(k="4"), dict(k=4.0),
                dict(n_classes=False), dict(n_classes=None)):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            md.ModelDims(**{"d_in": 8, **bad})
    # numpy integers are integers
    assert md.ModelDims(d_in=np.int64(8), k=np.int32(4)).param_shapes() == \
        md.ModelDims(d_in=8, k=4).param_shapes()


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
    with pytest.raises(ShapeError, match=r"^parameter semantics\.base has shape "
                                         r"\(2, 8\), the model dimensions need \(3, 8\)$"):
        md.init_params(DIMS, 0, np.zeros((2, 8)))


def test_init_params_refuses_a_bad_seed_or_base_vectors_of_no_numbers():
    for seed in (-1, 1.5, True, "0"):
        with pytest.raises(ConfigError, match="^seed must be an integer of at least 0"):
            md.init_params(DIMS, seed)
    for base in ([["a", "b"]], [[1.0, 2.0], [3.0]], {"a": 1}):
        with pytest.raises(ShapeError, match="^parameter semantics.base is not an "
                                             "array of numbers") as caught:
            md.init_params(DIMS, 0, base)
        assert "fit in memory" not in str(caught.value)


def test_params_are_views_into_one_buffer():
    params = md.init_params(DIMS, 0)
    trainable = params.trainable()
    assert params.flat.size == sum(t.data.size for _, t in trainable)
    assert np.array_equal(
        np.concatenate([t.data.reshape(-1) for _, t in trainable]), params.flat)
    for name, t in params.named():
        assert np.shares_memory(t.data, params.buffer), name
    params.flat[:] = 0.0
    assert all(not t.data.any() for _, t in trainable)
    assert params.semantics.base.data.any()
    arrays = {n: t.data for n, t in params.named()}
    arrays["adaptor_i.b1"] = np.zeros((2, 1))
    with pytest.raises(ShapeError):
        md.params_from_arrays(arrays, DIMS)


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


@pytest.mark.parametrize("n_rows", [64, 512, 9])
def test_mlp_in_place_forward_is_the_expression(n_rows):
    # the default bundle's patch block, an `eval-wide` one and the class
    # text: the in-place forward gives the bits of the plain expression
    dims = md.ModelDims(d_in=32, k=16, n_classes=3)
    params = md.init_params(dims, 3)
    x = np.random.default_rng(0).normal(size=(n_rows, dims.d_in))
    for m in (params.adaptor_i, params.adaptor_t):
        got = m(ad.Tensor(x)).data
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


def _attention_weights(features, agg, counts=None):
    """The dense block-diagonal [R x N] segment weights: row r holds segment
    r's attention weights, from `aggregate`'s own numpy core, and zeros
    elsewhere. `_attention_weights(...) @ x` is the oracle of the pooling."""
    _, plan, p = md._attention(features, agg, counts)
    weights = np.zeros((plan.starts.size, p.size))
    weights[plan.seg, np.arange(p.size)] = p
    return weights


def test_attention_weights_distribution():
    params = md.init_params(DIMS, 4)
    feats = ad.Tensor(np.random.default_rng(1).normal(size=(6, 4)))
    w = _attention_weights(feats, params.agg_region)
    assert w.shape == (1, 6)
    assert np.all(w > 0)
    assert_allclose(w.sum(), 1.0, atol=1e-12)


def test_attention_weights_permutation_equivariant():
    params = md.init_params(DIMS, 4)
    x = np.random.default_rng(2).normal(size=(5, 4))
    perm = np.array([3, 0, 4, 1, 2])
    w = _attention_weights(ad.Tensor(x), params.agg_region)
    wp = _attention_weights(ad.Tensor(x[perm]), params.agg_region)
    assert_allclose(wp[0], w[0][perm], rtol=1e-12)


def test_attention_empty_raises():
    params = md.init_params(DIMS, 0)
    with pytest.raises(EmptyBagError):
        md.aggregate(ad.Tensor(np.zeros((0, 4))), params.agg_region)


def test_aggregate_single_row_identity():
    params = md.init_params(DIMS, 5)
    x = np.random.default_rng(3).normal(size=(1, 4))
    got = md.aggregate(ad.Tensor(x), params.agg_region).data
    assert_allclose(got, x, rtol=1e-14)


def test_aggregate_is_weighted_mean():
    params = md.init_params(DIMS, 6)
    x = np.random.default_rng(4).normal(size=(7, 4))
    w = _attention_weights(ad.Tensor(x), params.agg_region)
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
    weights = _attention_weights(x, params.agg_region, SEGMENTS)
    bounds = np.cumsum([0] + SEGMENTS)
    assert got.shape == (len(SEGMENTS), 4)
    for r, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        piece = ad.Tensor(x.data[start:stop])
        want = md.aggregate(piece, params.agg_region).data[0]
        assert_allclose(got[r], want, rtol=0, atol=1e-15)
        want_w = _attention_weights(piece, params.agg_region)[0]
        assert_allclose(weights[r, start:stop], want_w, rtol=0, atol=1e-15)
        # block-diagonal: no weight outside the region's own rows
        assert not np.delete(weights[r], np.arange(start, stop)).any()


POOL_DIMS = md.ModelDims(d_in=8, k=16, n_classes=3)


@pytest.mark.parametrize("counts", [
    [16] * 4, [16] * 32, [7] * 8, [37] * 10, [1, 3, 7], [250, 20, 260, 3],
    None, [1] * 6,
], ids=["4x16", "32x16", "8x7", "10x37", "ragged-1-3-7",
        "ragged-crossing-256-512", "one-segment", "one-row-each"])
def test_aggregate_equals_the_dense_block_product_bit_for_bit(counts):
    # the per-segment products of segments of one size must keep the bits
    # of one dense product by the block-diagonal weights, whose extra
    # entries are zeros
    params = md.init_params(POOL_DIMS, 11)
    rng = np.random.default_rng(12)
    n = 37 if counts is None else sum(counts)
    for _ in range(5):
        x = ad.Tensor(rng.normal(size=(n, POOL_DIMS.k)))
        got = md.aggregate(x, params.agg_region, counts).data
        want = _attention_weights(x, params.agg_region, counts) @ x.data
        assert got.shape == want.shape
        assert np.array_equal(got, want)


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
    # an error is never cached: the same bad counts raise again
    for _ in range(2):
        with pytest.raises(EmptyBagError):
            md.aggregate(x, params.agg_region, [2, 0, 3])
        with pytest.raises(EmptyBagError):
            md.aggregate(x, params.agg_region, [])
        with pytest.raises(ShapeError):
            md.aggregate(x, params.agg_region, [2, 2])


def test_segment_plan_once_per_layout():
    md._segment_plan.cache_clear()
    plan = md.segment_plan(np.array([1, 3, 2]), 6)
    assert_array_equal(plan.seg, [0, 1, 1, 1, 2, 2])
    assert_array_equal(plan.starts, [0, 1, 4])
    # each row's flat position in the [3 x 6] block-diagonal weights
    assert_array_equal(plan.scatter, [0, 7, 8, 9, 16, 17])
    assert plan.even is False
    for arr in (plan.seg, plan.starts, plan.scatter):
        assert not arr.flags.writeable
    assert md.segment_plan([1, 3, 2], 6) is plan
    assert md._segment_plan.cache_info().misses == 1
    assert_array_equal(md.segment_plan(None, 4).seg, [0, 0, 0, 0])
    assert md._segment_plan.cache_info().misses == 2
    # segments of one size, which `aggregate` pools by a reshape view
    assert md.segment_plan(None, 4).even is True
    assert md.segment_plan([2, 2, 2], 6).even is True
    # two blocks of the layout laid end to end: segment ids, starts and
    # places in two [3 x 6] block weights run on into the second block
    stacked = md.segment_plan([1, 3, 2], 6, 2)
    assert_array_equal(stacked.seg, [0, 1, 1, 1, 2, 2, 3, 4, 4, 4, 5, 5])
    assert_array_equal(stacked.starts, [0, 1, 4, 6, 7, 10])
    assert_array_equal(stacked.scatter, [0, 7, 8, 9, 16, 17, 18, 25, 26, 27, 34, 35])
    assert (stacked.even, stacked.n_seg, plan.n_seg) == (False, 3, 3)
    assert md._segment_plan.cache_info().misses == 4


def test_slide_tangents_plan_each_layout_once():
    params = md.init_params(DIMS, 1)
    rng = np.random.default_rng(8)
    md._segment_plan.cache_clear()
    # two bags of one layout: its patch and region layouts, one miss each
    for _ in range(2):
        md.slide_tangents([_bag(rng)], params)
    assert md._segment_plan.cache_info()[:2] == (2, 2)
    # a second layout: two more
    md.slide_tangents([_bag(rng, n_regions=3)], params)
    assert md._segment_plan.cache_info()[:2] == (2, 4)


# -- embedding pipeline ---------------------------------------------------------


def test_embed_text_structure():
    params = md.init_params(DIMS, 7)
    text = md.embed_text(params, GEOM)
    assert isinstance(text, geo.Points)
    assert text.count == 3 * len(md.HierarchyLevel)
    for level in md.HierarchyLevel:
        pts = md.text_level(text, level)
        assert pts.count == 3
        # rows level.value * C + c, and they match a standalone pass over
        # that level's features
        assert np.array_equal(pts.space.data,
                              text.space.data[3 * level.value:3 * level.value + 3])
        feats = ad.Tensor(params.semantics.base.data
                          + params.semantics.offsets.data[:, level.value])
        want = geo.exp_map_origin(params.adaptor_t(feats), GEOM)
        assert_allclose(pts.space.data, want.space.data, rtol=1e-12)


def test_embed_slide_shapes():
    params = md.init_params(DIMS, 8)
    bag = _bag(np.random.default_rng(5), n_regions=3, n_patches=4)
    emb = md.embed_slide(bag, params, GEOM)
    assert emb.patches.count == 12
    assert emb.regions.count == 3
    assert emb.slide.count == 1
    assert emb.sizes is bag.sizes and emb.sizes.tolist() == [4, 4, 4]


def test_embed_slide_on_manifold():
    params = md.init_params(DIMS, 9)
    bag = _bag(np.random.default_rng(6))
    emb = md.embed_slide(bag, params, GEOM)
    for pts in (emb.patches, emb.regions, emb.slide, emb.text):
        inner = (pts.space.data ** 2).sum(axis=1) - pts.time.data[:, 0] ** 2
        assert np.max(np.abs(inner + 1.0)) < 1e-9


def test_embed_slide_maps_every_level_once():
    params = md.init_params(DIMS, 15)
    bag = _bag(np.random.default_rng(8), n_regions=3, n_patches=4)
    emb = md.embed_slide(bag, params, GEOM)
    slide_tan, region_tan, patch_tan = md.slide_tangents([bag], params)
    # each level's rows are, bit for bit, a map of its own level's tangents
    for got, tangent in ((emb.slide, slide_tan), (emb.regions, region_tan),
                         (emb.patches, patch_tan)):
        want = geo.exp_map_origin(tangent, GEOM)
        assert np.array_equal(got.space.data, want.space.data)
    assert emb.patches is emb.patches
    assert emb.regions is emb.regions
    # every view is a view of the one map of the stacked image and text rows
    space = emb.space.space
    assert space._op == "exp_map_origin" and space._parents[0]._op == "stack"
    assert emb.n_image == 1 + 3 + 12
    for got in (emb.text, emb.slide, emb.regions, emb.patches):
        assert got.space._parents == (space,)
        assert np.shares_memory(got.space.data, space.data)


def test_slide_tangents_are_the_pooled_adaptor_rows():
    params = md.init_params(DIMS, 16)
    bag = _bag(np.random.default_rng(10), n_regions=3, n_patches=4)
    slide_tan, region_tan, patch_tan = md.slide_tangents([bag], params)
    raw = ad.Tensor(np.concatenate(bag.regions, axis=0, dtype=np.float64))
    want_patches = params.adaptor_i(raw)
    want_regions = md.aggregate(want_patches, params.agg_region, [4, 4, 4])
    want_slide = md.aggregate(want_regions, params.agg_slide)
    # a pass of one bag runs its own [N x d_in] block: no bag axis
    for got, want in ((slide_tan, want_slide), (region_tan, want_regions),
                      (patch_tan, want_patches)):
        assert got.shape == want.shape
        assert np.array_equal(got.data, want.data)
    assert [t._op for t in (slide_tan, region_tan, patch_tan)] == [
        "aggregate", "aggregate", "adaptor"]


# region layouts of the stacked-pass checks: even, ragged, skewed, one
# region, and one-patch regions
STACK_LAYOUTS = {
    "4x16": [16] * 4, "8x7": [7] * 8, "10x37": [37] * 10, "3x100": [100] * 3,
    "32x16": [16] * 32, "2x1000": [1000] * 2, "ragged-1-3-7": [1, 3, 7],
    "skewed": [250, 20, 260, 3],
    "ragged-32": np.random.default_rng(31).integers(8, 25, 32).tolist(),
    "one-region": [40], "one-patch-regions": [1] * 6,
}


def _layout_bags(rng, sizes, n_bags, d_in):
    return [FeatureBag(f"s{b}", 0, "x", [rng.normal(size=(n, d_in)).astype(np.float32)
                                         for n in sizes])
            for b in range(n_bags)]


@pytest.mark.parametrize("d_in", [32, 128])
@pytest.mark.parametrize("layout", list(STACK_LAYOUTS))
def test_stacked_slide_tangents_equal_one_pass_per_bag(layout, d_in):
    # every product of a stacked pass is the one its bag gets alone, so each
    # bag's slide, region and patch tangents keep the bits of the one-bag
    # graph (no bag axis) whatever B is
    params = md.init_params(md.ModelDims(d_in=d_in, k=16, n_classes=3), 13)
    rng = np.random.default_rng(14)
    with ad.no_grad():
        for n_bags in (2, 17):
            bags = _layout_bags(rng, STACK_LAYOUTS[layout], n_bags, d_in)
            stacked = md.slide_tangents(bags, params)
            for b, bag in enumerate(bags):
                alone = md.slide_tangents([bag], params)
                for got, want in zip(stacked, alone):
                    assert np.array_equal(got.data[b], want.data), (n_bags, b)


def test_a_stacked_pass_is_three_nodes_over_the_leaves():
    # one adaptor and two aggregates, whatever the number of bags; one bag
    # has no bag axis
    params = md.init_params(DIMS, 21)
    rng = np.random.default_rng(22)
    for n_bags, lead in ((1, ()), (5, (5,))):
        slide_tan, region_tan, patch_tan = md.slide_tangents(
            _layout_bags(rng, [3, 3], n_bags, 8), params)
        assert slide_tan.shape == (*lead, 1, 4)
        assert region_tan.shape == (*lead, 2, 4) and patch_tan.shape == (*lead, 6, 4)
        assert [slide_tan._op, slide_tan._parents[0]._op,
                slide_tan._parents[0]._parents[0]._op] == [
            "aggregate", "aggregate", "adaptor"]


@pytest.mark.parametrize("counts", [[1, 3, 2], [3, 3], None],
                         ids=["ragged", "even", "one-segment"])
def test_a_stacked_pass_has_the_gradients_of_its_bags(counts):
    # each block's input gradient is bit for bit its own pass's; a weight's
    # gradient is the sum over the blocks, taken over all their rows at once
    params = md.init_params(DIMS, 25)
    rng = np.random.default_rng(26)
    blocks = rng.normal(size=(3, 6, 8))
    probe = rng.normal(size=(3, 1 if counts is None else len(counts), 4))

    def grads(x, probe):
        params.zero_grads()
        leaf = ad.Tensor(x, requires_grad=True)
        out = md.aggregate(params.adaptor_i(leaf), params.agg_region, counts)
        (out * ad.Tensor(probe)).sum().backward()
        return leaf.grad, params.grad.copy()

    stacked_x, stacked_w = grads(blocks, probe)
    alone = [grads(block, block_probe) for block, block_probe in zip(blocks, probe)]
    for b, (alone_x, _) in enumerate(alone):
        assert np.array_equal(stacked_x[b], alone_x), b
    assert_allclose(stacked_w, sum(w for _, w in alone), rtol=1e-12, atol=1e-15)
    assert np.any(stacked_w != 0.0)


def test_a_stacked_pass_refuses_a_bag_before_stacking():
    params = md.init_params(DIMS, 23)
    rng = np.random.default_rng(24)
    good = _layout_bags(rng, [3, 3], 2, 8)
    wide = FeatureBag("wide", 0, "x", [np.zeros((3, 9))] * 2)
    other = FeatureBag("other", 0, "x", [np.zeros((2, 8)), np.zeros((4, 8))])
    empty = FeatureBag("empty", 0, "x", [np.zeros((3, 8)), np.zeros((0, 8))])
    cases = ((wide, ShapeError, r"^slide wide region 0 is not a \[patches x 8\]"),
             (other, ShapeError, r"^slide other has regions of \[2, 4\] patches, "
                                 r"not the \[3, 3\] of slide s0"),
             (empty, EmptyBagError, "^slide empty region 1 has no patches"))
    for bad, error, message in cases:
        with pytest.raises(error, match=message):
            md.slide_tangents([good[0], bad, good[1]], params)
    # the first bag at fault is the one named
    with pytest.raises(ShapeError, match="^slide wide "):
        md.slide_tangents([good[0], wide, other], params)
    with pytest.raises(ShapeError, match="no bags"):
        md.slide_tangents([], params)


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
    for region in (np.zeros(8), np.zeros((2, 2, 8))):
        with pytest.raises(ShapeError,
                           match=r"^slide s region 1 is not a \[patches x 8\]"):
            FeatureBag("s", 0, "x", [np.zeros((2, 8)), region])


def test_embed_slide_gradients_reach_all_trainables():
    params = md.init_params(DIMS, 11)
    bag = _bag(np.random.default_rng(7))
    emb = md.embed_slide(bag, params, GEOM)
    loss = ((emb.slide.space * emb.slide.space).sum()
            + (emb.text.space * emb.text.space).sum())
    loss.backward()
    for name, t in params.trainable():
        assert t.grad is not None, name
        assert np.all(np.isfinite(t.grad)), name
        assert np.any(t.grad != 0.0), name
    assert params.semantics.base.grad is None


def test_embed_slide_text_equals_embed_text():
    params = md.init_params(DIMS, 12)
    emb = md.embed_slide(_bag(np.random.default_rng(9)), params, GEOM)
    # the class text mapped with the image rows, row by row, is the class
    # text mapped alone
    assert emb.text.count == 3 * DIMS.n_classes
    assert_array_equal(emb.text.space.data, md.embed_text(params, GEOM).space.data)


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


def test_checkpoint_meta_that_is_not_a_number_is_refused_before_writing(tmp_path):
    params = md.init_params(DIMS, 12)
    path = tmp_path / "model.ckpt"
    for value in ("b", "1.5", None, True, [1.0]):
        with pytest.raises(ConfigError, match=f"^checkpoint meta.a must be a number, "
                                              f"got {re.escape(repr(value))}$"):
            md.save_checkpoint(params, path, meta={"epoch": 3, "a": value})
        assert list(tmp_path.iterdir()) == []


def test_checkpoint_with_the_former_dimension_records_loads(tmp_path):
    # checkpoints once recorded meta.d_hidden (0: the adaptor is d_in wide)
    # and meta.shared_aggregators (0: the slide has its own aggregator); one
    # that holds them at those values loads to the same buffer
    params = md.init_params(DIMS, 13)
    path = tmp_path / "former.ckpt"
    md.save_checkpoint(params, path, meta={"d_hidden": 0, "shared_aggregators": 0})
    records = md.load_checkpoint(path)
    assert {"meta.d_hidden", "meta.shared_aggregators"} < set(records)
    restored, meta = md.params_from_checkpoint(records)
    assert restored.dims == DIMS
    assert restored.buffer.tobytes() == params.buffer.tobytes()
    assert meta["d_hidden"] == 0.0 and meta["shared_aggregators"] == 0.0


def test_checkpoint_of_a_tied_or_narrower_model_is_refused(tmp_path):
    params = md.init_params(DIMS, 13)
    path = tmp_path / "former.ckpt"
    md.save_checkpoint(params, path, meta={"d_hidden": 0, "shared_aggregators": 0})
    # one aggregator for both levels: no agg_slide.* records
    records = md.load_checkpoint(path)
    records["meta.shared_aggregators"] = np.asarray(1.0)
    del records["agg_slide.w1"], records["agg_slide.w2"]
    with pytest.raises(FormatError, match="agg_slide.w1"):
        md.params_from_checkpoint(records)
    # an adaptor whose tanh layer is not d_in wide
    records = md.load_checkpoint(path)
    records["meta.d_hidden"] = np.asarray(5.0)
    records["adaptor_i.w1"] = np.zeros((5, 8))
    with pytest.raises(ShapeError, match="adaptor_i.w1"):
        md.params_from_checkpoint(records)


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


def test_checkpoint_record_name_not_utf8(tmp_path):
    params = md.init_params(DIMS, 18)
    path = tmp_path / "name.ckpt"
    md.save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    blob[13] = 0xFF  # the first byte of the first record name
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="record at byte 9 "):
        md.load_checkpoint(path)


def _record(name, shape, payload=b""):
    """One checkpoint record: name, rank, extents and payload."""
    encoded = name.encode("utf-8")
    return (struct.pack("<I", len(encoded)) + encoded
            + struct.pack(f"<I{len(shape)}Q", len(shape), *shape) + payload)


def test_checkpoint_repeated_record(tmp_path):
    params = md.init_params(DIMS, 19)
    path = tmp_path / "repeated.ckpt"
    md.save_checkpoint(params, path)
    end = path.stat().st_size
    # agg_region.w2 is [1 x 1] at k = 4, so the second record fits the model
    with open(path, "ab") as fh:
        fh.write(_record("agg_region.w2", (1, 1), struct.pack("<d", 5.0)))
    with pytest.raises(FormatError, match=f"record at byte {end} repeats "
                                          "the record agg_region.w2"):
        md.load_checkpoint(path)


def test_checkpoint_record_rank_above_three(tmp_path):
    params = md.init_params(DIMS, 20)
    path = tmp_path / "rank.ckpt"
    md.save_checkpoint(params, path)
    blob = path.read_bytes()
    # rank 4 with a full payload; rank 65, beyond numpy's 64 axes, with one
    # zero extent, so its empty payload checks out
    for shape, payload in (((1, 1, 1, 1), struct.pack("<d", 1.0)),
                           ((1,) * 64 + (0,), b"")):
        path.write_bytes(blob + _record("meta.extra", shape, payload))
        with pytest.raises(FormatError, match=f"record meta.extra at byte "
                                              f"{len(blob)} has rank {len(shape)}"):
            md.load_checkpoint(path)


def test_checkpoint_missing_records_are_format_errors(tmp_path):
    params = md.init_params(DIMS, 16)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(params, path)
    for name in ("meta.d_in", "meta.n_classes", "adaptor_t.b2",
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
